"""Command-line front end: every computation as a scriptable subcommand.

Each invocation prints one self-describing report, either as plain
``key: value`` text (default) or as a JSON document (``--format
structured``) that parses back into the same report.  All rational values
are rendered as decimal-free "p/q" strings.

Exit codes: 0 when every verdict is ok or not-applicable, 1 when any
verdict is violated, 2 on malformed input or usage errors, 3 when an
internal consistency check fails (an ``ArithmeticError``) or a lookup
inside a command does (a ``LookupError``): a bug, never an answer.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import binom, hermitian, oracle, poly


@dataclass
class Report:
    """One command's echo of inputs, outputs, and per-bound verdicts."""

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "verdicts": self.verdicts,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        return cls(doc["command"], doc["inputs"], doc["outputs"], doc["verdicts"])

    def to_json(self) -> str:
        """The report as ``json.dumps(self.to_dict(), indent=2)`` writes it."""
        return poly._json_text(self.to_dict())

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for section, data in (("input", self.inputs), ("output", self.outputs), ("verdict", self.verdicts)):
            for key, value in data.items():
                if isinstance(value, (dict, list)):
                    value = json.dumps(value)
                lines.append(f"{section} {key}: {value}")
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        return 1 if any(v == "violated" for v in self.verdicts.values()) else 0


def _verdict(ok: bool) -> str:
    return "ok" if ok else "violated"


def cmd_macrep(a: int, n: int) -> Report:
    rep = binom.macaulay_rep(a, n)
    value = binom.rep_value(rep)
    return Report(
        "macrep",
        inputs={"A": a, "n": n},
        outputs={"terms": [list(t) for t in rep.terms], "value": value},
        verdicts={"round_trip": _verdict(value == a)},
    )


def cmd_shift(a: int, n: int, s: int, t: int) -> Report:
    value = binom.shift_apply(a, n, s, t)
    return Report(
        "shift",
        inputs={"A": a, "n": n, "s": s, "t": t},
        outputs={"value": value},
        verdicts={"zero_convention": _verdict(a != 0 or value == 0)},
    )


def cmd_lemma_scan(m_max: int, d_max: int, s_max: int) -> Report:
    if min(m_max, d_max, s_max) < 1:
        raise ValueError(
            f"--m-max, --d-max and --s-max must be >= 1 to check any split, got {m_max}, {d_max}, {s_max}"
        )
    failures = binom.scan_split_shift_identity(m_max, d_max, s_max)
    splits = sum(
        math.comb(m + d, d) + 1
        for m in range(1, m_max + 1)
        for d in range(1, d_max + 1)
    ) * s_max
    return Report(
        "lemma-scan",
        inputs={"m_max": m_max, "d_max": d_max, "s_max": s_max},
        outputs={"splits_checked": splits, "failures": [list(f) for f in failures]},
        verdicts={"identity": _verdict(not failures)},
    )


def cmd_hilbert(path: str, d_max: int, mode: str) -> Report:
    if d_max < 0:
        raise ValueError(f"--d-max must be >= 0, got {d_max}")
    ideal = poly.parse_ideal(Path(path).read_text())
    records = poly.hilbert_records(ideal, d_max, mode=mode)
    identity_ok = all(
        r.h_ideal + r.h_quotient == math.comb(ideal.n_vars - 1 + r.degree, r.degree)
        for r in records
    )
    return Report(
        "hilbert",
        inputs={"file": path, "d_max": d_max, "mode": mode, "n_vars": ideal.n_vars},
        outputs={
            "degrees": [r.degree for r in records],
            "h_ideal": [r.h_ideal for r in records],
            "h_quotient": [r.h_quotient for r in records],
        },
        verdicts={"dimension_identity": _verdict(identity_ok)},
    )


def cmd_verify(path: str, d_max: int, mode: str) -> Report:
    if d_max < 2:
        raise ValueError(f"--d-max must be >= 2 to check any degree, got {d_max}")
    ideal = poly.parse_ideal(Path(path).read_text())
    checks = poly.verify_macaulay(ideal, d_max, mode=mode)
    return Report(
        "verify",
        inputs={"file": path, "d_max": d_max, "mode": mode, "n_vars": ideal.n_vars},
        outputs={
            "checks": [
                {"degree": c.degree, "forward": c.forward_ok, "quotient": c.quotient_ok, "reverse": c.reverse_ok}
                for c in checks
            ]
        },
        verdicts={
            "forward_bound": _verdict(all(c.forward_ok for c in checks)),
            "quotient_bound": _verdict(all(c.quotient_ok for c in checks)),
            "reverse_bound": _verdict(all(c.reverse_ok for c in checks)),
        },
    )


def cmd_bridge(n_max: int, d_max: int) -> Report:
    if n_max < 2 or d_max < 1:
        raise ValueError(f"need n_max >= 2 and d_max >= 1 to check any pair, got {n_max}, {d_max}")
    # the split identity at m = n - 1, s = 1, over the whole grid at once
    failing = binom._split_failures(range(1, n_max), range(1, d_max + 1), (1,))
    failures = [list(pair) for pair in dict.fromkeys((m + 1, d) for _, _, m, d, _ in failing)]
    return Report(
        "bridge",
        inputs={"n_max": n_max, "d_max": d_max},
        outputs={"failures": failures},
        verdicts={"identity": _verdict(not failures)},
    )


def cmd_hermitian(path: str, s: int | None, t: int | None, l: int) -> Report:
    if l < 1:
        raise ValueError(f"--l must be >= 1, got {l}")

    def check(n_vars: int, d: int) -> None:
        # the report's input checks, in its order, before the matrix is built
        if (s is None) != (t is None):
            raise ValueError("give both --s and --t, or neither")
        hermitian._require_report_inputs(n_vars, d, (n_vars, 0) if s is None else (s, t), l)

    form = hermitian.parse_biform(Path(path).read_text(), check)
    if s is None:
        s, t = form.n_vars, 0
    inputs = {"file": path, "n_vars": form.n_vars, "d": form.half_degree, "s": s, "t": t, "l": l}
    outputs, verdicts = hermitian.hermitian_report(form, (s, t), l)
    verdicts = {k: "not-applicable" if v is None else _verdict(v) for k, v in verdicts.items()}
    return Report("hermitian", inputs, outputs, verdicts)


def cmd_min_sos(path: str, l_max: int) -> Report:
    if l_max < 1:
        raise ValueError(f"--l-max must be >= 1, got {l_max}")
    # the first norm power's size check, before the matrix is built
    form = hermitian.parse_biform(Path(path).read_text(), lambda n_vars, d: hermitian._require_power_basis(n_vars, d, 1))
    found = None if form.is_zero() else hermitian.find_min_sos_exponent(form, l_max)
    return Report(
        "min-sos",
        inputs={"file": path, "l_max": l_max},
        outputs={"min_power": found},
        verdicts={"search": "not-applicable" if form.is_zero() else "ok"},
    )


def cmd_corpus(args: argparse.Namespace) -> Report:
    if args.d_max < 2:
        raise ValueError(f"--d-max must be >= 2 to check any degree, got {args.d_max}")
    if args.lex_probe and (args.lex_probe[0] < 2 or args.lex_probe[1] < 1):
        raise ValueError("--lex-probe needs N >= 2 and D >= 1 to probe any bound, got {}, {}".format(*args.lex_probe))
    spec = oracle.CorpusSpec(
        n_vars=(args.n_min, args.n_max),
        gens=(args.gens_min, args.gens_max),
        degrees=(args.deg_min, args.deg_max),
        d_max=args.d_max,
        seed=args.seed,
        draws=args.draws,
        kinds=tuple(args.kinds.split(",")),
    )
    if spec.n_vars[0] < 2:
        raise ValueError("corpus verification needs at least 2 variables")
    corpus = oracle.random_corpus(spec)
    violations = []
    for idx, ideal in enumerate(corpus):
        for check in poly.verify_macaulay(ideal, spec.d_max, mode=args.mode):
            if not (check.forward_ok and check.quotient_ok and check.reverse_ok):
                violations.append({"ideal": idx, "degree": check.degree})
    outputs = {"size": len(corpus), "violations": violations}
    if args.lex_probe:
        n_probe, d_probe = args.lex_probe
        report = oracle.lex_growth_report(n_probe, d_probe)
        outputs["lex_probe"] = {key: report[key] for key in ("n_vars", "degree", "tight", "total")}
    return Report(
        "corpus",
        inputs={
            "seed": spec.seed,
            "n_vars": list(spec.n_vars),
            "gens": list(spec.gens),
            "degrees": list(spec.degrees),
            "d_max": spec.d_max,
            "draws": spec.draws,
            "kinds": list(spec.kinds),
            "mode": args.mode,
        },
        outputs=outputs,
        verdicts={"growth_bounds": _verdict(not violations)},
    )


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a fresh HelpFormatter for every add_argument and every
    # usage or help message, and each one reads the terminal size unless it
    # is given a width.  Read it once here, as HelpFormatter would (columns
    # less 2), so help and usage still follow COLUMNS as main() sees it.
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="macaulay",
        description="Exact Macaulay representations, Hilbert function bounds, and Hermitian signature inequalities.",
        formatter_class=formatter,
    )
    parser.add_argument("--format", choices=("text", "structured"), default="text",
                        help="report rendering: human-readable text or JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter))
    # Each handler looks its cmd_* function up by name when it runs, so a
    # caller that rebinds a module attribute (a tracer, a test) is honoured.

    p = sub.add_parser("macrep", help="Macaulay representation of an integer")
    p.add_argument("A", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=lambda a: cmd_macrep(a.A, a.n))

    p = sub.add_parser("shift", help="apply the shift operator to a representation")
    p.add_argument("A", type=int)
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(handler=lambda a: cmd_shift(a.A, a.n, a.s, a.t))

    p = sub.add_parser("lemma-scan", help="exhaustively check the complementary-split shift identity")
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--s-max", type=int, default=3)
    p.set_defaults(handler=lambda a: cmd_lemma_scan(a.m_max, a.d_max, a.s_max))

    p = sub.add_parser("hilbert", help="Hilbert function table of an ideal file")
    p.add_argument("ideal_file")
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--mode", choices=("exact", "modular-checked"), default="exact")
    p.set_defaults(handler=lambda a: cmd_hilbert(a.ideal_file, a.d_max, a.mode))

    p = sub.add_parser("verify", help="check the growth bounds on an ideal file")
    p.add_argument("ideal_file")
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--mode", choices=("exact", "modular-checked"), default="exact")
    p.set_defaults(handler=lambda a: cmd_verify(a.ideal_file, a.d_max, a.mode))

    p = sub.add_parser("bridge", help="check the split identity linking the two bound formulations")
    p.add_argument("n_max", type=int)
    p.add_argument("d_max", type=int)
    p.set_defaults(handler=lambda a: cmd_bridge(a.n_max, a.d_max))

    p = sub.add_parser("hermitian", help="signature, ranks, and bound verdicts for a biform file")
    p.add_argument("biform_file")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--l", type=int, default=1)
    p.set_defaults(handler=lambda a: cmd_hermitian(a.biform_file, a.s, a.t, a.l))

    p = sub.add_parser("min-sos", help="least norm power making a biform a sum of squared norms")
    p.add_argument("biform_file")
    p.add_argument("--l-max", type=int, default=8)
    p.set_defaults(handler=lambda a: cmd_min_sos(a.biform_file, a.l_max))

    p = sub.add_parser("corpus", help="generate a seeded ideal corpus and verify the growth bounds on it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--gens-min", type=int, default=1)
    p.add_argument("--gens-max", type=int, default=3)
    p.add_argument("--deg-min", type=int, default=1)
    p.add_argument("--deg-max", type=int, default=3)
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--draws", type=int, default=1)
    p.add_argument("--kinds", default="monomial,dense")
    p.add_argument("--mode", choices=("exact", "modular-checked"), default="exact")
    p.add_argument("--lex-probe", type=int, nargs=2, metavar=("N", "D"), default=None)
    p.set_defaults(handler=lambda a: cmd_corpus(a))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, LookupError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    print(report.to_json() if args.format == "structured" else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
