"""Tests for polynomials, graded ideals, Hilbert functions, and growth bounds."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay import binom
from macaulay.binom import shift_apply
from macaulay.cli import main
from macaulay.poly import (
    GradedIdeal,
    HomogPoly,
    bridge_identity_check,
    exact_rank,
    format_ideal,
    graded_piece_dim,
    hilbert_record,
    macaulay_bound_ideal,
    macaulay_bound_quotient,
    macaulay_reverse_bound_ideal,
    monomial_poly,
    monomials_of_degree,
    parse_ideal,
    poly_multiply,
    RANK_PRIMES,
    rank_mod_prime,
    variable,
    verify_macaulay,
    _json_rational,
)
from macaulay.oracle import SplitMix64
from references import brute_hilbert_monomial, integer_rows


def test_monomials_of_degree_small_cases():
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(3, 0) == ((0, 0, 0),)
    assert len(monomials_of_degree(3, 2)) == 6


def test_monomials_of_degree_documented_order():
    # descending grevlex with z1 > z2 > z3
    assert monomials_of_degree(3, 2) == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    )


def test_monomials_of_degree_counts():
    for n in range(1, 5):
        for d in range(0, 7):
            assert len(monomials_of_degree(n, d)) == math.comb(n - 1 + d, d)


def test_poly_multiply_worked_values():
    z1, z2 = variable(0, 2), variable(1, 2)
    assert poly_multiply(z1, z2).terms == {(1, 1): Fraction(1)}
    one = HomogPoly(2, 0, {(0, 0): Fraction(1)})
    f = z1 + z2
    assert poly_multiply(f, one) == f
    assert poly_multiply(z1 + z2, z1 - z2).terms == {
        (2, 0): Fraction(1),
        (0, 2): Fraction(-1),
    }


def test_poly_validation():
    with pytest.raises(ValueError):
        HomogPoly(2, 2, {(1, 0): Fraction(1)})  # degree mismatch
    with pytest.raises(ValueError):
        HomogPoly(2, 1, {(1, 0, 0): Fraction(1)})  # wrong arity
    with pytest.raises(ValueError):
        poly_multiply(variable(0, 2), variable(0, 3))
    zero = HomogPoly.zero(3, 4)
    assert zero.is_zero() and zero.degree == 4


def test_graded_ideal_validation():
    with pytest.raises(ValueError):
        GradedIdeal(2, (HomogPoly.zero(2, 1),))
    with pytest.raises(ValueError):
        GradedIdeal(3, (variable(0, 2),))
    assert GradedIdeal.zero(2).generators == ()


def test_graded_ideal_needs_a_variable():
    for make in (lambda: GradedIdeal(0, ()), lambda: GradedIdeal.zero(0),
                 lambda: parse_ideal('{"n_vars": 0, "generators": []}')):
        with pytest.raises(ValueError, match="^need at least one variable, got 0$"):
            make()
    with pytest.raises(ValueError, match="^need at least one variable, got -2$"):
        GradedIdeal.zero(-2)


def test_graded_piece_dim_worked_values():
    z1, z2 = variable(0, 2), variable(1, 2)
    assert graded_piece_dim(GradedIdeal(2, (z1,)), 3) == 3
    assert graded_piece_dim(GradedIdeal.zero(2), 4) == 0
    assert graded_piece_dim(GradedIdeal(2, (z1, z2)), 2) == 3


def test_graded_piece_dim_skips_high_degree_generators():
    z1 = variable(0, 2)
    cubic = monomial_poly((3, 0))
    ideal = GradedIdeal(2, (z1, cubic))
    assert graded_piece_dim(ideal, 2) == 2  # only z1 contributes


def test_hilbert_record_worked_values():
    z1 = variable(0, 2)
    assert hilbert_record(GradedIdeal(2, (z1,)), 2) == (2, 2, 1)
    assert hilbert_record(GradedIdeal.zero(3), 2) == (2, 0, 6)
    sq = monomial_poly((2, 0))
    assert hilbert_record(GradedIdeal(2, (sq,)), 2) == (2, 1, 2)


def test_hilbert_dimension_identity():
    gens = (monomial_poly((2, 1, 0)), variable(2, 3))
    ideal = GradedIdeal(3, gens)
    for d in range(0, 7):
        rec = hilbert_record(ideal, d)
        assert rec.h_ideal + rec.h_quotient == math.comb(2 + d, d)


def test_macaulay_bound_quotient_worked_values():
    assert macaulay_bound_quotient(1, 2) == 1
    assert macaulay_bound_quotient(0, 3) == 0
    assert macaulay_bound_quotient(3, 1) == 6


def test_macaulay_bound_ideal_worked_values():
    assert macaulay_bound_ideal(2, 2) == 3
    assert macaulay_bound_ideal(0, 5) == 0
    assert macaulay_bound_ideal(3, 4) == 9


def test_macaulay_reverse_bound_worked_values():
    assert macaulay_reverse_bound_ideal(3, 2) == 2
    assert macaulay_reverse_bound_ideal(0, 3) == 0
    # consistency with the forward bound: 3 grows to at least 9, and 9
    # shrinks back to at least 3
    assert macaulay_reverse_bound_ideal(9, 4) >= 3


def test_verify_macaulay_worked_ideals():
    z1 = variable(0, 2)
    checks = verify_macaulay(GradedIdeal(2, (z1,)), 5)
    assert [c.degree for c in checks] == [1, 2, 3, 4]
    assert all(c.forward_ok and c.quotient_ok and c.reverse_ok for c in checks)

    checks = verify_macaulay(GradedIdeal.zero(2), 5)
    assert all(c.forward_ok and c.quotient_ok and c.reverse_ok for c in checks)

    full = GradedIdeal(2, (monomial_poly((2, 0)), monomial_poly((1, 1)), monomial_poly((0, 2))))
    checks = verify_macaulay(full, 4)
    assert all(c.forward_ok and c.quotient_ok and c.reverse_ok for c in checks)
    for d in range(2, 5):
        assert graded_piece_dim(full, d) == d + 1


def test_verify_macaulay_rejects_one_variable():
    with pytest.raises(ValueError):
        verify_macaulay(GradedIdeal(1, (variable(0, 1),)), 4)


def test_verify_macaulay_refuses_an_empty_check():
    ideal = GradedIdeal(2, (variable(0, 2),))
    assert len(verify_macaulay(ideal, 2)) == 1
    for d_max in (1, 0):
        with pytest.raises(ValueError, match="d_max must be >= 2"):
            verify_macaulay(ideal, d_max)


def test_bridge_identity_worked_values():
    assert bridge_identity_check(2, 1)
    assert bridge_identity_check(3, 2)
    assert bridge_identity_check(5, 4)
    for n_vars, d in ((1, 2), (3, 0)):
        with pytest.raises(ValueError, match="need n_vars >= 2 and d >= 1"):
            bridge_identity_check(n_vars, d)


def reference_bridge(n_vars, d):
    """The per-split definition: two shift_apply calls per split A + B."""
    total = math.comb(n_vars - 1 + d, d)
    target = math.comb(n_vars + d, d + 1)
    return all(
        shift_apply(a, n_vars - 1, 0, 1) + shift_apply(total - a, d, 1, 1) == target
        for a in range(total + 1)
    )


@given(st.integers(2, 7), st.integers(1, 7))
@settings(max_examples=30, deadline=None)
def test_bridge_agrees_with_the_per_split_definition(n_vars, d):
    assert bridge_identity_check(n_vars, d) == reference_bridge(n_vars, d)


def plant_walk_fault(monkeypatch, n, a, b):
    """Make every chain list the shifted value of the representation of b as entry a of its walk of
    index n, edited after the chain is built."""
    chain = binom._walk_chain

    def faulty_chain(counts, s, t):
        walks = chain(counts, s, t)
        if n < len(walks) and a < len(walks[n]):
            walks[n][a] = shift_apply(b, n, s, t)
        return walks

    monkeypatch.setattr(binom, "_walk_chain", faulty_chain)


def test_bridge_sees_a_planted_fault(monkeypatch):
    # the representation of n + 1, listed for 1, at n = 2: both sides of (n_vars, d) = (3, 2)
    plant_walk_fault(monkeypatch, 2, 1, 3)
    assert not bridge_identity_check(3, 2)


def bridge_failures(n_max, d_max, capsys):
    code = main(["--format", "structured", "bridge", str(n_max), str(d_max)])
    failures = json.loads(capsys.readouterr().out)["outputs"]["failures"]
    assert code == (1 if failures else 0)
    return failures


def test_bridge_grid_fails_exactly_the_failing_pairs(monkeypatch, capsys):
    assert bridge_failures(7, 7, capsys) == [[n, d] for n in range(2, 8) for d in range(1, 8) if not reference_bridge(n, d)] == []
    # the representation of 7 listed for 4 at index 3: every pair with m = n - 1 = 3 or d = 3 whose
    # split count reaches 4 fails, and no other
    plant_walk_fault(monkeypatch, 3, 4, 7)

    def pair_ok(n_vars, d):
        total = math.comb(n_vars - 1 + d, d)

        def value(a, n, s, t):
            return shift_apply(7 if (n, a) == (3, 4) else a, n, s, t)

        return all(
            value(a, n_vars - 1, 0, 1) + value(total - a, d, 1, 1) == math.comb(n_vars + d, d + 1)
            for a in range(total + 1)
        )

    expected = [[n, d] for n in range(2, 8) for d in range(1, 8) if not pair_ok(n, d)]
    assert [4, 1] in expected and [2, 3] in expected and [5, 5] not in expected
    assert bridge_failures(7, 7, capsys) == expected
    assert [[n, d] for n in range(2, 8) for d in range(1, 8) if not bridge_identity_check(n, d)] == expected


def test_exact_rank_basics():
    assert exact_rank([]) == 0
    assert exact_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1  # proportional rows
    assert exact_rank(integer_rows([{0: Fraction(1, 2)}, {1: Fraction(3)}])) == 2
    # a rank-2 matrix whose naive elimination needs care with fractions
    rows = integer_rows([
        {0: Fraction(1, 3), 1: Fraction(1, 6), 2: Fraction(1, 2)},
        {0: Fraction(2, 3), 1: Fraction(1, 3), 2: Fraction(1)},
        {0: Fraction(1), 1: Fraction(0), 2: Fraction(1)},
    ])
    assert exact_rank(rows) == 2
    for p in RANK_PRIMES:
        assert rank_mod_prime(rows, p) == 2


def test_exact_rank_matches_modular_on_random_monomial_ideals():
    rng = SplitMix64(987654321)
    assert len(set(RANK_PRIMES)) == 3
    for p in RANK_PRIMES:
        assert p >= 2**31
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
    for _ in range(200):
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(1, 3)
            basis = monomials_of_degree(n, degree)
            gens.append(monomial_poly(basis[rng.randrange(len(basis))]))
        ideal = GradedIdeal(n, tuple(gens))
        d = rng.randint(1, 6)
        exact = graded_piece_dim(ideal, d)
        assert exact == graded_piece_dim(ideal, d, mode="modular-checked")
        assert exact == brute_hilbert_monomial(ideal, d)


def test_modular_rank_agrees_on_rational_ideals():
    rng = SplitMix64(24680)
    for _ in range(25):
        n = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 2)):
            degree = rng.randint(1, 2)
            terms = {
                m: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for m in monomials_of_degree(n, degree)
            }
            terms = {m: c for m, c in terms.items() if c}
            if not terms:
                continue
            gens.append(HomogPoly(n, degree, terms))
        if not gens:
            continue
        ideal = GradedIdeal(n, tuple(gens))
        for d in range(1, 5):
            assert graded_piece_dim(ideal, d) == graded_piece_dim(ideal, d, mode="modular-checked")


def test_ideal_monotonicity_for_monomial_ideals():
    from references import exhaustive_monomial_corpus

    for ideal in exhaustive_monomial_corpus(max_vars=3, max_gens=2, max_degree=2):
        dims = [graded_piece_dim(ideal, d) for d in range(0, 6)]
        assert all(a <= b for a, b in zip(dims, dims[1:])), ideal


def test_ideal_serialization_round_trip():
    f = HomogPoly(3, 2, {
        (2, 0, 0): Fraction(22, 7),
        (1, 1, 0): Fraction(-1, 99999999999),
    })
    g = monomial_poly((0, 1, 2))
    ideal = GradedIdeal(3, (f, g))
    text = format_ideal(ideal)
    again = parse_ideal(text)
    assert again == ideal
    assert format_ideal(again) == text


# The bytes format_ideal writes for the ideal below.  The file format is a
# contract, so they must not change with the writer.
FIXED_IDEAL_TEXT = """{
  "n_vars": 2,
  "generators": [
    [
      {
        "coeff": "1/2",
        "exponents": [
          2,
          0
        ]
      },
      {
        "coeff": "-3",
        "exponents": [
          1,
          1
        ]
      },
      {
        "coeff": "-7/4",
        "exponents": [
          0,
          2
        ]
      }
    ],
    [
      {
        "coeff": "5/3",
        "exponents": [
          0,
          1
        ]
      }
    ]
  ]
}"""


def test_format_ideal_bytes_are_stable():
    f = HomogPoly(2, 2, {(2, 0): Fraction(1, 2), (1, 1): -3, (0, 2): Fraction(-7, 4)})
    g = HomogPoly(2, 1, {(0, 1): Fraction(5, 3)})
    ideal = GradedIdeal(2, (f, g))
    assert format_ideal(ideal) == FIXED_IDEAL_TEXT
    assert parse_ideal(FIXED_IDEAL_TEXT) == ideal


def _json_rational_by_fraction(value, what):
    """The rational reader as ``Fraction`` alone: ``Fraction(value)`` for
    a str or an int, as its int numerator when it is integral, and refusal
    for a bool, a float or anything else."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f'{what} must be a "p/q" string or an integer, got {value!r}')
    try:
        f = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator: {value!r}") from None
    return f.numerator if f.denominator == 1 else f


@pytest.mark.parametrize("value", [
    "0", "-0", "007", "12/8", "3/0", "+3", " 3", "1.5", "1e3", "3_000", "\u0663",
    "3/-4", "--3", "", "/3", 5, True, 0.5, "\u00b2",
])
def test_json_rational_matches_fraction(value):
    def outcome(read):
        try:
            return read(value, "coeff")
        except ValueError as exc:
            return str(exc)

    got, want = outcome(_json_rational), outcome(_json_rational_by_fraction)
    assert got == want and type(got) is type(want)


def test_parse_ideal_rejects_bad_documents():
    with pytest.raises(ValueError):
        parse_ideal('{"n_vars": 2, "generators": [[{"coeff": "1", "exponents": [0, 0]}]]}')
    with pytest.raises(ValueError):
        parse_ideal(
            '{"n_vars": 2, "generators": [['
            '{"coeff": "1", "exponents": [1, 0]},'
            '{"coeff": "-1", "exponents": [1, 0]}]]}'
        )
    zero = parse_ideal('{"n_vars": 2, "generators": []}')
    assert zero == GradedIdeal.zero(2)
