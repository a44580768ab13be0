"""The benchmark's three workloads: seeded inputs, job mixes and checks.

Each workload builds a pool of CLI jobs from a seed.  The pool is a
sequence of blocks, and every block holds the same mix of job classes, so
any run of whole blocks has the workload's stated mix whatever the seed.
The seed picks the coefficients, the integers, the order of shapes and the
order of jobs inside a block.

Input generation calls no rank, signature or peel function, so set-up time
does not move with changes to those kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace


@dataclass
class Job:
    """One CLI invocation and what its report must show."""

    argv: list[str]
    kind: str
    size: dict
    expect: dict = field(default_factory=dict)
    source: str | None = None


def shuffled(rng, items: list) -> list:
    """Fisher-Yates shuffle driven by the package's SplitMix64 generator."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def cycling(rng, items: list):
    """Endless stream of ``items``, in a fresh seeded order on every cycle."""
    while True:
        yield from shuffled(rng, items)


def build_blocks(rng, streams: dict, mix: tuple[tuple[str, int], ...], blocks: int) -> list[tuple[int, int, str, object]]:
    """(block, slot, class, shape) for ``blocks`` blocks of ``mix``, each block
    shuffled; ``slot`` is the job's place in the block before the shuffle."""
    classes = [cls for cls, count in mix for _ in range(count)]
    out = []
    for b in range(blocks):
        out.extend(shuffled(rng, [(b, k, cls, next(streams[cls])) for k, cls in enumerate(classes)]))
    return out


def binom_total(a: int, b: int) -> int:
    """C(a, b) as a total function: 0 when b < 0 or a < b."""
    return 0 if b < 0 or a < b else math.comb(a, b)


def reference_rep(a: int, n: int) -> list[tuple[int, int]]:
    """The n-th Macaulay representation of a, by greedy bisection; the
    reference the shift-scan and biform checks compare against."""
    terms = []
    j = n
    while a > 0:
        lo, hi = j, 2 * j + 1
        while math.comb(hi, j) <= a:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, j) <= a else (lo, mid)
        terms.append((lo, j))
        a -= math.comb(lo, j)
        j -= 1
    return terms


def reference_shift(a: int, n: int, s: int, t: int) -> int:
    return sum(binom_total(u + t, j + s) for u, j in reference_rep(a, n))


def structured(*argv) -> list[str]:
    return ["--format", "structured", *map(str, argv)]


def verdicts_pass(report: dict) -> str | None:
    bad = {k: v for k, v in report["verdicts"].items() if v not in ("ok", "not-applicable")}
    return f"verdicts {bad}" if bad else None


# ---------------------------------------------------------------------------
# ideal-verify
# ---------------------------------------------------------------------------

class IdealVerify:
    """``verify <ideal> --d-max 7`` over seeded dense rational ideals.

    Classes, with unscaled job times on a shared 2-core VM: ``a`` 3
    variables and 2 generators (about 13 ms), ``b`` 3 variables and 3
    generators (16-25 ms), ``c`` 4 variables and 2-3 generators (70-480
    ms).  A block of 2a + 6b + 2c puts p50 inside class b and p95 inside
    class c, away from the gaps between the classes.
    """

    name = "ideal-verify"
    why = "exact rank over Q on graded pieces; rank/row changes show here, Hermitian changes should not"
    D_MAX = 7
    CLASSES = {
        "a": [(3, degs) for degs in combinations_with_replacement((1, 2, 3), 2)],
        "b": [(3, degs) for degs in combinations_with_replacement((1, 2, 3), 3)],
        "c": [(4, degs) for g in (2, 3) for degs in combinations_with_replacement((1, 2, 3), g)],
    }
    MIX = (("a", 2), ("b", 6), ("c", 2))
    # One draw of coefficients changes a class-c job's cost by about 20%,
    # so the pool holds six draws of every class-c shape.
    BLOCKS = 48
    SAMPLE = 10
    PARSER_SHARE = 0.0

    def generate(self, mods: SimpleNamespace, rng, inputs: Path, blocks: int) -> list[Job]:
        poly = mods.poly
        streams = {cls: cycling(rng, shapes) for cls, shapes in self.CLASSES.items()}
        jobs = []
        for i, (_, _, cls, (n, degs)) in enumerate(build_blocks(rng, streams, self.MIX, blocks)):
            gens = tuple(self._dense(poly, rng, n, deg) for deg in degs)
            path = inputs / f"ideal-{i:04d}.json"
            path.write_text(poly.format_ideal(poly.GradedIdeal(n, gens)))
            jobs.append(Job(
                argv=structured("verify", path, "--d-max", self.D_MAX),
                kind="verify",
                size={"class": cls, "n": n, "degrees": list(degs), "d_max": self.D_MAX},
                source=str(path),
            ))
        return jobs

    @staticmethod
    def _dense(poly, rng, n: int, deg: int):
        while True:
            terms = {}
            for mono in poly.monomials_of_degree(n, deg):
                coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if coeff:
                    terms[mono] = coeff
            if terms:
                return poly.HomogPoly(n, deg, terms)

    def check(self, job: Job, report: dict) -> str | None:
        verdicts = report["verdicts"]
        for bound in ("forward_bound", "quotient_bound", "reverse_bound"):
            if verdicts.get(bound) != "ok":
                return f"{bound} is {verdicts.get(bound)}"
        degrees = [c["degree"] for c in report["outputs"]["checks"]]
        if degrees != list(range(1, self.D_MAX)):
            return f"checked degrees {degrees}"
        return None

    def cross_check(self, jobs: list[Job], run) -> tuple[set[str], int]:
        """H_I tables of a sample of ideals from ``hilbert`` in exact mode and
        in modular-checked mode, which uses a different elimination.  Returns
        the sources that disagree and the number of sources checked."""
        sample = list(dict.fromkeys(j.source for j in jobs))[: self.SAMPLE]
        failed = set()
        for source in sample:
            tables = []
            for mode in ("exact", "modular-checked"):
                rc, report, _ = run(structured("hilbert", source, "--d-max", self.D_MAX, "--mode", mode))
                ok = rc == 0 and report is not None and report["verdicts"].get("dimension_identity") == "ok"
                tables.append(report["outputs"]["h_ideal"] if ok else None)
            if tables[0] is None or tables[0] != tables[1]:
                failed.add(source)
        return failed, len(sample)


# ---------------------------------------------------------------------------
# biform-report
# ---------------------------------------------------------------------------

class BiformReport:
    """``hermitian <biform> --s S --t T --l 1`` over seeded biforms.

    Shapes (n, d), with unscaled job times on a shared 2-core VM: A =
    (2,2), (2,3) (dim 3-4, 3-7 ms); B = (3,2) (dim 6, about 15 ms); C =
    (3,3) (dim 10, about 45 ms); D = (4,2) (dim 10, about 90 ms, product
    dim 20).  A block of 3A + 4B + 2C + 1D puts p50 in the middle of B and
    p95 in the middle of D.  Half the jobs are general forms, half are PSD
    forms built from echelon squares, whose rank is known by construction.
    """

    name = "biform-report"
    why = "Bareiss over Q(i), congruence peel and norm products; ROADMAP item 2 lands here"
    CLASSES = {"A": [(2, 2), (2, 3)], "B": [(3, 2)], "C": [(3, 3)], "D": [(4, 2)]}
    MIX = (("A", 3), ("B", 4), ("C", 2), ("D", 1))
    BLOCKS = 20
    PARSER_SHARE = 0.0

    def generate(self, mods: SimpleNamespace, rng, inputs: Path, blocks: int) -> list[Job]:
        hermitian, oracle, poly = mods.hermitian, mods.oracle, mods.poly
        streams = {cls: cycling(rng, shapes) for cls, shapes in self.CLASSES.items()}
        jobs = []
        for i, (b, k, cls, (n, d)) in enumerate(build_blocks(rng, streams, self.MIX, blocks)):
            kind = "general" if (k + b) % 2 == 0 else "psd"
            dim = len(poly.monomials_of_degree(n, d))
            expect = {}
            if kind == "general":
                form = oracle.random_hermitian_instance(n, d, rng.next_u64())
                while form.is_zero():
                    form = oracle.random_hermitian_instance(n, d, rng.next_u64())
            else:
                rank = max(1, dim // 2)
                form = hermitian.biform_from_squares(n, d, self._echelon(mods, rng, n, d, rank))
                expect = {"p": rank, "q": 0}
            s = 1 + rng.randrange(n)
            path = inputs / f"biform-{i:04d}.json"
            path.write_text(hermitian.format_biform(form))
            jobs.append(Job(
                argv=structured("hermitian", path, "--s", s, "--t", n - s, "--l", 1),
                kind=kind,
                size={"class": cls, "n": n, "d": d, "dim": dim, "product_dim": len(poly.monomials_of_degree(n, d + 1))},
                expect=expect,
                source=str(path),
            ))
        return jobs

    @staticmethod
    def _echelon(mods, rng, n: int, d: int, count: int):
        """``count`` polynomials in echelon form over a seeded ordering of the
        degree-d monomials, hence linearly independent: the sum of their
        squared norms has signature (count, 0)."""
        gauss = mods.hermitian.GaussianRational
        basis = shuffled(rng, list(mods.poly.monomials_of_degree(n, d)))
        polys = []
        for i in range(count):
            terms = {basis[i]: gauss(rng.randint(1, 3) * rng.choice((1, -1)), rng.randint(-3, 3))}
            for mono in basis[i + 1:]:
                c = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                if c:
                    terms[mono] = c
            polys.append(mods.poly.HomogPoly(n, d, terms))
        return polys

    def check(self, job: Job, report: dict) -> str | None:
        out = report["outputs"]
        n = job.size["n"]
        p, q, r = out["signature"]["p"], out["signature"]["q"], out["rank"]
        if r != p + q:
            return f"rank {r} != p + q = {p + q}"
        low, high = 2 * reference_shift(r, n - 1, 0, 1) - r * n, r * n
        if out["product_rank_interval"] != [low, high]:
            return f"product rank interval {out['product_rank_interval']} != {[low, high]}"
        if not low <= out["product_rank"] <= high:
            return f"product rank {out['product_rank']} outside [{low}, {high}]"
        if job.expect:
            if (p, q) != (job.expect["p"], job.expect["q"]):
                return f"signature ({p}, {q}) of a PSD form built with rank {job.expect['p']}"
            if out["norm_power_is_sum_of_squares"] is not True:
                return "PSD form times the norm is not reported as a sum of squares"
        return None

    def cross_check(self, jobs: list[Job], run) -> tuple[set[str], int]:
        return set(), 0


# ---------------------------------------------------------------------------
# shift-scan
# ---------------------------------------------------------------------------

class ShiftScan:
    """Pure ``binom`` work and CLI overhead, no linear algebra.

    A block holds 4 ``macrep`` and 4 ``shift`` calls (about 2 ms each, most
    of it building the argparse parser), 4 ``bridge`` jobs and 1
    ``lemma-scan``.  The scans walk fixed size grids in a seeded order:
    every 75 blocks cover the lemma-scan grid once and the bridge grid 12
    times.  Scan times run from 2 to 140 ms, one distinct size per grid
    point, so their upper quantiles are sparse; this mix puts p95 where
    bridge and lemma-scan sizes overlap most densely, and p50 inside the
    tiny-call cluster.
    """

    name = "shift-scan"
    why = "binom bisection and shifts plus argparse cost; bypasses rank and signature, so those should not move"
    CLASSES = {
        "macrep": [None],
        "shift": [None],
        "bridge": [(n, d) for n in range(2, 7) for d in range(2, 7)],
        "lemma": [(m, d, s) for m in range(2, 7) for d in range(2, 7) for s in range(1, 4)],
    }
    MIX = (("macrep", 4), ("shift", 4), ("bridge", 4), ("lemma", 1))
    BLOCKS = 75
    # Traced time splits about evenly between building the argparse parser
    # and binom arithmetic.
    PARSER_SHARE = 0.5

    def generate(self, mods: SimpleNamespace, rng, inputs: Path, blocks: int) -> list[Job]:
        streams = {cls: cycling(rng, shapes) for cls, shapes in self.CLASSES.items()}
        jobs = []
        for _, _, cls, shape in build_blocks(rng, streams, self.MIX, blocks):
            if cls == "macrep":
                a, n = rng.randrange(10**9), rng.randint(1, 8)
                jobs.append(Job(structured("macrep", a, n), cls, {"A": a, "n": n},
                                expect={"terms": [list(t) for t in reference_rep(a, n)]}))
            elif cls == "shift":
                a, n, s, t = rng.randrange(10**9), rng.randint(1, 8), rng.randint(-1, 2), rng.randint(-1, 2)
                jobs.append(Job(structured("shift", a, n, s, t), cls, {"A": a, "n": n, "s": s, "t": t},
                                expect={"value": reference_shift(a, n, s, t)}))
            elif cls == "bridge":
                n, d = shape
                jobs.append(Job(structured("bridge", n, d), cls, {"n_max": n, "d_max": d}))
            else:
                m, d, s = shape
                splits = s * sum(math.comb(i + j, j) + 1 for i in range(1, m + 1) for j in range(1, d + 1))
                jobs.append(Job(structured("lemma-scan", "--m-max", m, "--d-max", d, "--s-max", s), "lemma-scan",
                                {"m_max": m, "d_max": d, "s_max": s, "splits": splits}, expect={"splits": splits}))
        return jobs

    def check(self, job: Job, report: dict) -> str | None:
        out = report["outputs"]
        if job.kind == "macrep":
            if out["terms"] != job.expect["terms"] or out["value"] != job.size["A"]:
                return f"representation {out['terms']} of {job.size['A']}"
        elif job.kind == "shift":
            if out["value"] != job.expect["value"]:
                return f"shift value {out['value']} != {job.expect['value']}"
        elif job.kind == "bridge":
            if out["failures"]:
                return f"bridge failures {out['failures']}"
        else:
            if out["failures"] or out["splits_checked"] != job.expect["splits"]:
                return f"lemma-scan checked {out['splits_checked']} splits, failures {out['failures'][:3]}"
        return None

    def cross_check(self, jobs: list[Job], run) -> tuple[set[str], int]:
        return set(), 0


WORKLOADS = {w.name: w for w in (IdealVerify(), BiformReport(), ShiftScan())}
