"""The graded-piece rows are the primitive integer multiples of each
generator, and the rank routines read their rows without changing them.

The row oracle numbers the columns, orders the multipliers, applies the
product criterion and makes each generator primitive with its own code,
sharing nothing with ``poly._graded_piece_rows`` or ``poly._primitive_integers``.
"""

import copy
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay import poly
from macaulay.cli import main
from macaulay.hermitian import GaussianRational
from macaulay.poly import RANK_PRIMES, GradedIdeal, HomogPoly, exact_rank, format_ideal, monomial_poly, rank_mod_prime


def grevlex(n: int, k: int) -> list[tuple[int, ...]]:
    """The exponent tuples of degree k, grevlex-largest first."""
    def exponents(k: int, slots: int):
        if slots == 1:
            yield (k,)
            return
        for e in range(k + 1):
            for rest in exponents(k - e, slots - 1):
                yield (e, *rest)

    return sorted(exponents(k, n), key=lambda m: m[::-1])


def primitive(coeffs: list[tuple[Fraction, Fraction]], pairs: bool) -> list:
    """The coefficients (re, im) times the lcm of their denominators, over
    the gcd of all the parts: ``(re, im)`` int pairs, or ints."""
    den = 1
    for c in coeffs:
        for x in c:
            den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [(int(re * den), int(im * den)) for re, im in coeffs]
    content = 0
    for pair in ints:
        for v in pair:
            content = math.gcd(content, v)
    return [(re // content, im // content) if pairs else re // content for re, im in ints]


def expected_rows(ideal: GradedIdeal, d: int):
    """The kept and the skipped rows m*g_j of I_d: a row is skipped when the
    grevlex leading monomial of an earlier generator divides m.  Every
    generator holds int pairs if any coefficient of the ideal is not real."""
    column = {m: i for i, m in enumerate(grevlex(ideal.n_vars, d))}
    parts = [[(Fraction(getattr(c, "re", c)), Fraction(getattr(c, "im", 0))) for c in g.terms.values()]
             for g in ideal.generators]
    pairs = any(im for coeffs in parts for _, im in coeffs)
    kept, skipped, leads = [], [], []
    for g, coeffs in zip(ideal.generators, parts):
        monos = list(g.terms)
        coeffs = primitive(coeffs, pairs)
        if g.degree <= d:
            for m in grevlex(ideal.n_vars, d - g.degree):
                row = {column[tuple(a + b for a, b in zip(m, t))]: c for t, c in zip(monos, coeffs)}
                divides = any(all(x <= y for x, y in zip(lead, m)) for lead in leads)
                (skipped if divides else kept).append(row)
        leads.append(min(monos, key=lambda m: m[::-1]))
    return kept, skipped


def typed(rows):
    """Each value with its type, and the types of a pair's parts."""
    return [{c: (type(v), v, [type(x) for x in v] if type(v) is tuple else []) for c, v in row.items()} for row in rows]


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


@st.composite
def ideals(draw):
    """1-3 generators of degree 1-3 in 2-4 variables, with denominators, a
    common factor, a negative leading coefficient, or Gaussian entries."""
    n = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        basis = grevlex(n, degree)
        monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=len(basis), unique=True))
        factor = draw(st.sampled_from((1, 1, 6, Fraction(4, 9), -3)))
        coeffs = [factor * draw(fractions) for _ in monos]
        if draw(st.booleans()):
            lead = min(range(len(monos)), key=lambda i: monos[i][::-1])
            coeffs[lead] = -abs(coeffs[lead])
        if draw(st.integers(0, 3)) == 0:
            coeffs = [GaussianRational(c, draw(st.fractions(-2, 2, max_denominator=3))) for c in coeffs]
        gens.append(HomogPoly(n, degree, dict(zip(monos, coeffs))))
    return GradedIdeal(n, tuple(gens))


@settings(max_examples=300, deadline=None)
@given(ideals(), st.integers(0, 6))
def test_rows_are_the_primitive_multiples_in_order(ideal, d):
    """Rows of a rational ideal hold ints, those of an ideal with a non-real
    coefficient ``(re, im)`` int pairs; ``typed`` tells an int from an equal
    Fraction, and a pair from a Gaussian rational."""
    kept, skipped = poly._graded_piece_rows(ideal.n_vars, ideal._autoreduction.given, d)
    want_kept, want_skipped = expected_rows(ideal, d)
    assert typed(kept) == typed(want_kept)
    assert typed(skipped) == typed(want_skipped)


def test_rank_routines_leave_their_rows_alone():
    rows = [{0: 2, 3: 4}, {2: 5}, {0: 1, 1: 3}, {0: 3, 1: 9, 2: -7}, {2: 1}, {}]
    pairs = [{c: (v, v) if i % 2 else (v, 0) for c, v in row.items()} for i, row in enumerate(rows)]
    for matrix in (rows, pairs):
        before = copy.deepcopy(matrix)
        assert exact_rank(matrix) == 3
        assert matrix == before
        for p in RANK_PRIMES:
            assert rank_mod_prime(matrix, p) == 3
            assert matrix == before


def test_no_columns_when_no_generator_fits(capsys, monkeypatch, tmp_path):
    def refuse(n_vars, d):
        raise AssertionError(f"listed the monomials of degree {d} in {n_vars} variables")

    monkeypatch.setattr(poly, "monomials_of_degree", refuse)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n_vars": 40, "generators": []}))
    high = tmp_path / "high.json"
    high.write_text(format_ideal(GradedIdeal(40, (monomial_poly((12,) + (0,) * 39),))))
    for path in (zero, high):
        for mode in ("exact", "modular-checked"):
            argv = ["--format", "structured", "hilbert", str(path), "--d-max", "10", "--mode", mode]
            assert main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["outputs"]["h_ideal"] == [0] * 11
