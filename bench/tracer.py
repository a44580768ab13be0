"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each macaulay module from outside
the package; nothing under ``src/`` changes.  Every module binding that
holds an original function is swapped for its wrapper, so names imported
with ``from .binom import shift_apply`` (in ``poly``, ``hermitian`` and
``oracle``) are traced too.

A span records its name, start, end, parent span and job id.  Spans live
in flat arrays while the run lasts and are written out when it ends.  A
span's self time is its duration minus the time its child spans cover;
the tracer's own bookkeeping inside a child is charged to neither, but
counted apart so that the traced wall time is fully accounted for.
"""

from __future__ import annotations

import sys
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("binom", "poly", "hermitian", "oracle", "cli")

# O(1) leaves called from inside every other binom/poly function: a span
# around each would cost more than the work it times.  Their time shows as
# the self time of their callers.
UNTRACED = frozenset({"binom.binom_coeff", "binom.rep_value", "poly.monomial_degree"})

# Which elimination an exact_rank call serves, read off its caller.
RANK_CALLERS = {"poly.graded_piece_dim": "q", "hermitian.biform_rank": "qi"}

PER_LAYER = (
    ("poly.exact_rank.q.self_s", "s"),
    ("poly.exact_rank.q.calls", "count"),
    ("poly.exact_rank.q.rows", "count"),
    ("poly.exact_rank.q.cols", "count"),
    ("poly.exact_rank.q.nnz", "count"),
    ("poly.exact_rank.rank_over_rows", "ratio"),
    ("poly.exact_rank.rank_sum", "count"),
    ("poly.exact_rank.rows", "count"),
    ("poly.graded_piece_dim.self_s", "s"),
    ("poly.exact_rank.qi.self_s", "s"),
    ("poly.exact_rank.qi.calls", "count"),
    ("hermitian.biform_signature.self_s", "s"),
    ("hermitian.biform_signature.calls", "count"),
    ("hermitian.biform_signature.dim_sum", "count"),
    ("hermitian.multiply_signed_norm.self_s", "s"),
    ("hermitian.multiply_signed_norm.dim_out_sum", "count"),
    ("hermitian.HermitianBiform.self_s", "s"),
    ("hermitian.parse_biform.self_s", "s"),
    ("poly.parse_ideal.self_s", "s"),
    ("binom.macaulay_rep.calls", "count"),
    ("binom.macaulay_rep.self_s", "s"),
    ("binom.shift_apply.calls", "count"),
    ("binom.shift_apply.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("poly.monomials_of_degree.hit_ratio", "ratio"),
    ("layer.binom.self_s", "s"),
    ("layer.poly.self_s", "s"),
    ("layer.hermitian.self_s", "s"),
    ("layer.cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.layer_self_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.harness_s", "s"),
    ("trace.jobs", "count"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


def macaulay_modules() -> list[types.ModuleType]:
    """Every loaded module of the macaulay package, the package itself included."""
    return [m for k, m in sys.modules.items() if k == "macaulay" or k.startswith("macaulay.")]


def rebind(modules, original, replacement) -> list[tuple[object, str, object]]:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Returns (owner, name, original) triples that undo the change.
    """
    undo = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def public_functions(mod: types.ModuleType) -> list[tuple[str, object]]:
    """Functions defined in ``mod`` itself (lru-cached ones included) whose
    names do not start with an underscore."""
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type):
            continue
        if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """In-memory spans, per-name self times and size counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        self.extra_self_s: defaultdict = defaultdict(float)
        self.job_sizes: dict[int, list] = defaultdict(list)
        self.bookkeeping_s = 0.0
        self.job = -1
        self._stack: list[list] = []

    def _name_id(self, key: str) -> int:
        self.names.append(key)
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, key: str, fn, prepare=None, finish=None):
        """A traced stand-in for ``fn``.

        ``prepare(args) -> (args, info)`` runs before the span opens;
        ``finish(info, result, parent_name, seconds) -> key or None`` runs
        after it closes and may name a sub-key that also gets the span's
        self time and a call count.
        """
        nid = self._name_id(key)
        tracer = self
        names = self.names
        stack = self._stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_job = self.span_parent, self.span_job

        @wraps(fn)
        def traced(*args, **kwargs):
            t_enter = perf_counter()
            parent = stack[-1] if stack else None
            idx = len(span_name)
            span_name.append(nid)
            span_start.append(0.0)
            span_end.append(0.0)
            span_parent.append(parent[0] if parent is not None else -1)
            span_job.append(tracer.job)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            info = None
            if prepare is not None:
                args, info = prepare(args)
            sub = None
            t1 = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if finish is not None:
                    sub = finish(info, result, names[parent[1]] if parent is not None else "", t1 - t0)
                return result
            finally:
                if t1 is None:
                    t1 = perf_counter()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
                own = t1 - t0 - frame[2]
                tracer.self_s[nid] += own
                tracer.calls[nid] += 1
                if sub is not None:
                    tracer.extra_self_s[sub] += own
                    tracer.counts[sub + ".calls"] += 1
                t_exit = perf_counter()
                if parent is not None:
                    parent[2] += t_exit - t_enter
                tracer.bookkeeping_s += (t_exit - t_enter) - (t1 - t0)

        return traced

    # -- size recorders -------------------------------------------------

    def _rank_prepare(self, args):
        rows = list(args[0])
        nnz = sum(len(r) for r in rows)
        cols = len(set().union(*rows)) if rows else 0
        return (rows,) + args[1:], (len(rows), cols, nnz)

    def _rank_finish(self, info, rank, parent, seconds):
        rows, cols, nnz = info
        caller = RANK_CALLERS.get(parent, "other")
        key = "poly.exact_rank." + caller
        self.counts[key + ".rows"] += rows
        self.counts[key + ".cols"] += cols
        self.counts[key + ".nnz"] += nnz
        self.counts["poly.exact_rank.rows"] += rows
        self.counts["poly.exact_rank.rank_sum"] += rank
        self.job_sizes[self.job].append({"span": "poly.exact_rank", "caller": caller, "rows": rows,
                                         "cols": cols, "nnz": nnz, "rank": rank, "seconds": seconds})
        return key

    def _signature_prepare(self, args):
        return args, args[0].dim

    def _signature_finish(self, dim, result, parent, seconds):
        self.counts["hermitian.biform_signature.dim_sum"] += dim
        self.job_sizes[self.job].append({"span": "hermitian.biform_signature", "dim": dim, "seconds": seconds})
        return None

    def _norm_finish(self, info, product, parent, seconds):
        self.counts["hermitian.multiply_signed_norm.dim_out_sum"] += product.dim
        return None

    def _hooks(self, key: str):
        return {
            "poly.exact_rank": (self._rank_prepare, self._rank_finish),
            "hermitian.biform_signature": (self._signature_prepare, self._signature_finish),
            "hermitian.multiply_signed_norm": (None, self._norm_finish),
        }.get(key, (None, None))

    @contextmanager
    def installed(self, modules: dict[str, types.ModuleType]):
        """Trace the given layer modules for the duration of the block."""
        everything = macaulay_modules()
        targets = [
            (f"{layer}.{name}", fn)
            for layer in LAYERS
            for name, fn in public_functions(modules[layer])
            if f"{layer}.{name}" not in UNTRACED
        ]
        undo: list[tuple[object, str, object]] = []
        try:
            for key, fn in targets:
                undo += rebind(everything, fn, self.wrap(key, fn, *self._hooks(key)))
            cls = modules["hermitian"].HermitianBiform
            init = cls.__init__
            cls.__init__ = self.wrap("hermitian.HermitianBiform", init)
            undo.append((cls, "__init__", init))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and call count per traced name."""
        return {k: (s, c) for k, s, c in zip(self.names, self.self_s, self.calls)}

    def metrics(self, wall_s: float, scale: float, jobs: int, untraced_jobs_per_s: float, hit_ratio: float) -> dict:
        """The per-layer metrics of the traced pass.

        ``wall_s`` is the summed time of the pass's jobs; every time, that
        one included, is multiplied by ``scale`` to put it at the
        benchmark's reference machine speed.
        """
        totals = self.totals()

        def self_s(key):
            return totals.get(key, (0.0, 0))[0] * scale

        def calls(key):
            return totals.get(key, (0.0, 0))[1]

        layer_self = defaultdict(float)
        for key, (s, _) in totals.items():
            layer_self[key.split(".")[0]] += s * scale
        layer_total = sum(layer_self.values())
        bookkeeping = self.bookkeeping_s * scale
        wall = wall_s * scale
        rows = self.counts["poly.exact_rank.rows"]
        values = {
            "poly.exact_rank.q.self_s": self.extra_self_s["poly.exact_rank.q"] * scale,
            "poly.exact_rank.q.calls": self.counts["poly.exact_rank.q.calls"],
            "poly.exact_rank.q.rows": self.counts["poly.exact_rank.q.rows"],
            "poly.exact_rank.q.cols": self.counts["poly.exact_rank.q.cols"],
            "poly.exact_rank.q.nnz": self.counts["poly.exact_rank.q.nnz"],
            "poly.exact_rank.rank_over_rows": self.counts["poly.exact_rank.rank_sum"] / rows if rows else 0.0,
            "poly.exact_rank.rank_sum": self.counts["poly.exact_rank.rank_sum"],
            "poly.exact_rank.rows": rows,
            "poly.graded_piece_dim.self_s": self_s("poly.graded_piece_dim"),
            "poly.exact_rank.qi.self_s": self.extra_self_s["poly.exact_rank.qi"] * scale,
            "poly.exact_rank.qi.calls": self.counts["poly.exact_rank.qi.calls"],
            "hermitian.biform_signature.self_s": self_s("hermitian.biform_signature"),
            "hermitian.biform_signature.calls": calls("hermitian.biform_signature"),
            "hermitian.biform_signature.dim_sum": self.counts["hermitian.biform_signature.dim_sum"],
            "hermitian.multiply_signed_norm.self_s": self_s("hermitian.multiply_signed_norm"),
            "hermitian.multiply_signed_norm.dim_out_sum": self.counts["hermitian.multiply_signed_norm.dim_out_sum"],
            "hermitian.HermitianBiform.self_s": self_s("hermitian.HermitianBiform"),
            "hermitian.parse_biform.self_s": self_s("hermitian.parse_biform"),
            "poly.parse_ideal.self_s": self_s("poly.parse_ideal"),
            "binom.macaulay_rep.calls": calls("binom.macaulay_rep"),
            "binom.macaulay_rep.self_s": self_s("binom.macaulay_rep"),
            "binom.shift_apply.calls": calls("binom.shift_apply"),
            "binom.shift_apply.self_s": self_s("binom.shift_apply"),
            "cli.build_parser.self_s": self_s("cli.build_parser"),
            "cli.main.self_s": self_s("cli.main"),
            "poly.monomials_of_degree.hit_ratio": hit_ratio,
            "layer.binom.self_s": layer_self["binom"],
            "layer.poly.self_s": layer_self["poly"],
            "layer.hermitian.self_s": layer_self["hermitian"],
            "layer.cli.self_s": layer_self["cli"],
            "trace.wall_s": wall,
            "trace.layer_self_s": layer_total,
            "trace.bookkeeping_s": bookkeeping,
            "trace.harness_s": wall - layer_total - bookkeeping,
            "trace.jobs": jobs,
            "trace.jobs_per_s": jobs / wall,
            "trace.untraced_jobs_per_s": untraced_jobs_per_s,
            "trace.overhead_frac": untraced_jobs_per_s * wall / jobs - 1.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def spans(self) -> dict:
        """The spans as columns; times in integer nanoseconds from the first span."""
        base = self.span_start[0] if self.span_start else 0.0
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_ns": [round((t - base) * 1e9) for t in self.span_start],
            "end_ns": [round((t - base) * 1e9) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
        }
