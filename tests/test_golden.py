"""Golden report hashes: every CLI command, over a fixed, seeded input set
that this file generates, prints exactly the bytes it printed when
``tests/golden.json`` was written.

Each case is one in-process ``main`` call, run from the directory that
holds the generated input files, so reports name the same relative paths
everywhere.  A case's hash is the sha256 of the JSON text of its exit
code, stdout and stderr.  The inputs cover ``hermitian`` at l = 1 and 2
and every (s, t) on the four biform-report shapes (a general and a
positive semidefinite form of each, plus two forms whose rank the
modular certificate cannot prove), ``verify`` and ``hilbert`` in both
modes on a dense ideal of each ideal-verify class, the binomial
commands on fixed arguments, ``min-sos`` and ``corpus``, each in both
formats, and the documented error lines.

A change that alters a report on purpose regenerates the file in the
same change, with a note in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from macaulay import hermitian, poly
from macaulay.cli import main
from macaulay.hermitian import GaussianRational
from macaulay.oracle import SplitMix64, random_hermitian_instance

GOLDEN = Path(__file__).resolve().with_name("golden.json")
SEED = 2026

BIFORM_SHAPES = ((2, 2), (2, 3), (3, 2), (4, 2))
# (name, n, generator degrees): two shapes of each ideal-verify class, a, b and c
IDEAL_SHAPES = (("a1", 3, (2, 3)), ("a2", 3, (1, 3)), ("b1", 3, (1, 2, 3)), ("b2", 3, (2, 2, 2)),
                ("c1", 4, (2, 3)), ("c2", 4, (2, 2, 3)))
D_MAX = 7


def _echelon_squares(rng, n: int, d: int, count: int) -> list[poly.HomogPoly]:
    """``count`` Gaussian polynomials in echelon form over a seeded order of
    the degree-d monomials: their squared norms sum to a rank-``count``
    positive semidefinite form."""
    basis = list(poly.monomials_of_degree(n, d))
    basis = [basis[i] for i in sorted(range(len(basis)), key=lambda i: rng.next_u64())]
    out = []
    for i in range(count):
        terms = {basis[i]: GaussianRational(rng.randint(1, 3) * rng.choice((1, -1)), rng.randint(-3, 3))}
        for mono in basis[i + 1:]:
            c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            if c:
                terms[mono] = c
        out.append(poly.HomogPoly(n, d, terms))
    return out


def _dense_generator(rng, n: int, degree: int) -> poly.HomogPoly:
    while True:
        terms = {}
        for mono in poly.monomials_of_degree(n, degree):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if c:
                terms[mono] = c
        if terms:
            return poly.HomogPoly(n, degree, terms)


def _biforms(rng) -> dict[str, hermitian.HermitianBiform]:
    i, one = GaussianRational(0, 1), GaussianRational(1)
    p = 2291050477  # RANK_PRIMES[0], written out so that the inputs stay fixed
    forms = {
        # determinant p: full rank over Q(i), rank 1 modulo p
        "unlucky": hermitian.biform_from_terms(2, 1, [
            ((1, 0), (1, 0), p + 2), ((1, 0), (0, 1), GaussianRational(1, 1)),
            ((0, 1), (1, 0), GaussianRational(1, -1)), ((0, 1), (0, 1), 1)]),
        # |z1 - i z2|^2, rank 1
        "rank-one": hermitian.biform_from_squares(2, 1, [poly.HomogPoly(2, 1, {(1, 0): one, (0, 1): -i})]),
    }
    for n, d in BIFORM_SHAPES:
        general = random_hermitian_instance(n, d, rng.next_u64())
        while general.is_zero():
            general = random_hermitian_instance(n, d, rng.next_u64())
        forms[f"general-{n}-{d}"] = general
        dim = len(poly.monomials_of_degree(n, d))
        forms[f"psd-{n}-{d}"] = hermitian.biform_from_squares(n, d, _echelon_squares(rng, n, d, max(1, dim // 2)))
    return forms


ERROR_INPUTS = {
    "bad-ideal.json": '{"generators": 5}\n',
    "float-biform.json": json.dumps({"n_vars": 2, "d": 1, "terms": [
        {"alpha": [1, 0], "beta": [1, 0], "coeff": {"re": 0.5, "im": "0"}}]}) + "\n",
    "deep.json": "[" * 100000 + "]" * 100000 + "\n",
    "big-biform.json": '{"n_vars": 20, "d": 20, "terms": []}\n',
    "many-variables-biform.json": '{"n_vars": 1000000000, "d": 0, "terms": []}\n',
    "huge-biform.json": '{"n_vars": 1000000, "d": 1000000, "terms": []}\n',
    "square-biform.json": json.dumps({"n_vars": 3, "d": 2, "terms": [
        {"alpha": [2, 0, 0], "beta": [2, 0, 0], "coeff": {"re": "1", "im": "0"}}]}) + "\n",
    "split-biform.json": json.dumps({"n_vars": 10, "d": 3, "terms": [
        {"alpha": [3 * (i == k) for i in range(10)], "beta": [3 * (i == k) for i in range(10)],
         "coeff": {"re": c, "im": "0"}} for k, c in ((0, "1"), (1, "-1"))]}) + "\n",
    "zero-constant-ideal.json": '{"n_vars": 2, "generators": [[{"coeff": "0", "exponents": [0, 0]}]]}\n',
    "one-variable-ideal.json": '{"n_vars": 1, "generators": [[{"coeff": "1", "exponents": [2]}]]}\n',
}

ERROR_CASES = [
    ["verify", "bad-ideal.json"],
    ["hermitian", "float-biform.json"],
    ["verify", "deep.json"],
    ["hermitian", "deep.json"],
    ["hermitian", "big-biform.json"],
    ["min-sos", "big-biform.json"],
    ["hermitian", "many-variables-biform.json"],
    ["min-sos", "huge-biform.json"],
    ["hermitian", "square-biform.json", "--l", "45"],
    ["min-sos", "split-biform.json", "--l-max", "2"],
    ["verify", "zero-constant-ideal.json"],
    ["verify", "one-variable-ideal.json"],
    ["verify", "missing.json"],
    ["verify", "ideal-a1.json", "--d-max", "1"],
    ["hilbert", "ideal-a1.json", "--d-max", "-1"],
    ["corpus", "--d-max", "1"],
    ["corpus", "--d-max", "3", "--lex-probe", "1", "2"],
    ["bridge", "1", "5"],
    ["lemma-scan", "--m-max", "0"],
    ["min-sos", "general-2-2.json", "--l-max", "0"],
    ["hermitian", "general-2-2.json", "--l", "0"],
    ["hermitian", "general-2-2.json", "--s", "1"],
    ["hermitian", "general-2-2.json", "--s", "3", "--t", "-1"],
]


def write_cases(directory: Path) -> dict[str, list[str]]:
    """Write the input files into ``directory`` and return each case's argv,
    with file names relative to it, by case id."""
    rng = SplitMix64(SEED)
    cases: dict[str, list[str]] = {}

    def both_formats(name: str, argv: list[str]) -> None:
        for fmt in ("text", "structured"):
            cases[f"{name} {fmt}"] = ["--format", fmt, *argv]

    for name, form in _biforms(rng).items():
        (directory / f"{name}.json").write_text(hermitian.format_biform(form))
        for l in (1, 2):
            for s in range(form.n_vars + 1):
                both_formats(f"hermitian {name} l={l} s={s}",
                             ["hermitian", f"{name}.json", "--s", str(s), "--t", str(form.n_vars - s), "--l", str(l)])
    both_formats("min-sos rank-one", ["min-sos", "rank-one.json", "--l-max", "4"])
    both_formats("min-sos general-2-2", ["min-sos", "general-2-2.json", "--l-max", "4"])
    for name, n, degrees in IDEAL_SHAPES:
        ideal = poly.GradedIdeal(n, tuple(_dense_generator(rng, n, deg) for deg in degrees))
        (directory / f"ideal-{name}.json").write_text(poly.format_ideal(ideal))
        for command in ("verify", "hilbert"):
            for mode in ("exact", "modular-checked"):
                both_formats(f"{command} ideal-{name} {mode}",
                             [command, f"ideal-{name}.json", "--d-max", str(D_MAX), "--mode", mode])
    for argv in (["macrep", "5", "2"], ["macrep", "0", "4"], ["macrep", "123456789", "6"],
                 ["shift", "3", "3", "0", "1"], ["shift", "987654", "5", "-1", "2"], ["shift", "0", "3", "1", "1"],
                 ["bridge", "5", "5"], ["lemma-scan", "--m-max", "4", "--d-max", "4", "--s-max", "2"],
                 ["corpus", "--seed", "0", "--d-max", "4", "--mode", "modular-checked"],
                 ["corpus", "--seed", "0", "--d-max", "3", "--lex-probe", "3", "2"]):
        both_formats(" ".join(argv), argv)
    for name, text in ERROR_INPUTS.items():
        (directory / name).write_text(text)
    for argv in ERROR_CASES:
        cases["error " + " ".join(argv)] = argv
    return cases


def run_case(argv: list[str]) -> str:
    """sha256 of the JSON text of [exit code, stdout, stderr] of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def test_every_report_matches_its_golden_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    hashes = {case: run_case(argv) for case, argv in write_cases(tmp_path).items()}
    golden = json.loads(GOLDEN.read_text())
    assert sorted(hashes) == sorted(golden)
    assert [case for case in golden if hashes[case] != golden[case]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        GOLDEN.write_text(json.dumps({case: run_case(argv) for case, argv in write_cases(Path(tmp)).items()},
                                     indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
