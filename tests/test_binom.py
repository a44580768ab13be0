"""Tests for binomial coefficients, representations, and shift operators."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay import binom, hermitian, oracle, poly
from macaulay.binom import (
    MacaulayRep,
    binom_coeff,
    macaulay_rep,
    rep_value,
    scan_shift_inequalities,
    scan_split_shift_identity,
    shift_apply,
    shift_difference_bound_holds,
    shift_monotone_in_value_holds,
)


def test_binom_coeff_values():
    assert binom_coeff(5, 2) == 10
    assert binom_coeff(3, 5) == 0
    assert binom_coeff(7, 0) == 1
    assert binom_coeff(4, -1) == 0
    assert binom_coeff(-2, 0) == 0
    assert binom_coeff(0, 0) == 1


def test_binom_coeff_is_exact_for_large_inputs():
    assert binom_coeff(200, 100) == math.comb(200, 100)
    assert binom_coeff(500, 250) % 2 in (0, 1)  # arbitrary precision, no overflow


def test_macaulay_rep_worked_values():
    assert macaulay_rep(3, 3).terms == ((3, 3), (2, 2), (1, 1))
    assert macaulay_rep(0, 4).terms == ()
    assert macaulay_rep(5, 2).terms == ((3, 2), (2, 1))


def test_macaulay_rep_rejects_bad_input():
    with pytest.raises(ValueError):
        macaulay_rep(-1, 3)
    with pytest.raises(ValueError):
        macaulay_rep(5, 0)


_INDEX_0 = "representation index must be >= 1, got 0"
_INDEX_MINUS_1 = "representation index must be >= 1, got -1"
_INDEX_MINUS_3 = "representation index must be >= 1, got -3"


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: hermitian.product_rank_interval(1, 1), _INDEX_0, id="product_rank_interval-n1"),
        pytest.param(lambda: hermitian.product_rank_interval(1, 0), _INDEX_MINUS_1, id="product_rank_interval-n0"),
        pytest.param(lambda: hermitian.sos_min_positive_part(1, 1, 1), _INDEX_0, id="sos_min_positive_part-n1"),
        pytest.param(lambda: hermitian.sos_min_positive_part(1, 0, 1), _INDEX_MINUS_1, id="sos_min_positive_part-n0"),
        pytest.param(lambda: hermitian.sos_max_negative_part(1, 1, 1), _INDEX_0, id="sos_max_negative_part-n1"),
        pytest.param(lambda: hermitian.sos_max_negative_part(1, 0, 1), _INDEX_MINUS_1, id="sos_max_negative_part-n0"),
        pytest.param(lambda: hermitian.sos_max_negative_part(1, -2, 1), _INDEX_MINUS_3, id="sos_max_negative_part-n-2"),
        pytest.param(lambda: hermitian.sos_rank_interval(1, 0, 1, 1), _INDEX_0, id="sos_rank_interval-n1"),
        pytest.param(lambda: hermitian.sos_rank_interval(1, 0, 0, 1), _INDEX_MINUS_1, id="sos_rank_interval-n0"),
        pytest.param(lambda: hermitian.sos_rank_interval(1, 0, -2, 1), _INDEX_MINUS_3, id="sos_rank_interval-n-2"),
        pytest.param(lambda: poly.macaulay_bound_ideal(1, 1), _INDEX_0, id="macaulay_bound_ideal-n1"),
        pytest.param(lambda: poly.macaulay_bound_ideal(1, 0), _INDEX_MINUS_1, id="macaulay_bound_ideal-n0"),
        pytest.param(lambda: poly.macaulay_reverse_bound_ideal(1, 1), _INDEX_0, id="macaulay_reverse_bound_ideal-n1"),
        pytest.param(lambda: poly.macaulay_reverse_bound_ideal(1, 0), _INDEX_MINUS_1,
                     id="macaulay_reverse_bound_ideal-n0"),
        pytest.param(lambda: poly.macaulay_bound_quotient(1, 0), _INDEX_0, id="macaulay_bound_quotient-d0"),
        pytest.param(lambda: poly.macaulay_bound_quotient(1, -1), _INDEX_MINUS_1, id="macaulay_bound_quotient-d-1"),
        pytest.param(lambda: shift_monotone_in_value_holds(0, 2, 1), "cannot represent negative integer -1",
                     id="shift_monotone_in_value_holds-m0"),
        pytest.param(lambda: oracle.lex_growth_report(1, 2), _INDEX_0, id="lex_growth_report-n1"),
    ],
)
def test_every_bound_formula_refuses_a_representation_index_below_1(call, error):
    """The ideal and Hermitian bounds read the (n-1)-th representation and
    the quotient bound the d-th, so n < 2 or d < 1 is refused by
    ``macaulay_rep`` itself, in its words."""
    with pytest.raises(ValueError, match=f"^{error}$"):
        call()


def test_rep_invariants_validated():
    MacaulayRep(3, ((3, 3), (2, 2)))  # fine
    with pytest.raises(ValueError):
        MacaulayRep(3, ((2, 3), (3, 2)))  # upper indices not decreasing
    with pytest.raises(ValueError):
        MacaulayRep(3, ((3, 3), (3, 3)))  # lower index repeats
    with pytest.raises(ValueError):
        MacaulayRep(2, ((1, 2),))  # a_j < j


def test_rep_value_inverse():
    assert rep_value(MacaulayRep(3, ((3, 3), (2, 2), (1, 1)))) == 3
    assert rep_value(MacaulayRep(4, ())) == 0
    assert rep_value(MacaulayRep(2, ((3, 2), (2, 1)))) == 5


def test_round_trip_full_grid():
    for n in range(1, 9):
        for a in range(0, 10_001):
            rep = macaulay_rep(a, n)
            assert rep_value(rep) == a
            uppers = [u for u, _ in rep.terms]
            lowers = [j for _, j in rep.terms]
            assert uppers == sorted(uppers, reverse=True)
            assert len(set(uppers)) == len(uppers)
            if lowers:
                assert lowers == list(range(n, n - len(lowers), -1))


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=12))
def test_round_trip_property(a, n):
    assert rep_value(macaulay_rep(a, n)) == a


def test_representation_monotone_in_value():
    # consecutive values give lexicographically increasing padded keys
    for n in (1, 2, 3, 5, 8):
        prev_key = None
        for a in range(0, 2000):
            terms = macaulay_rep(a, n).terms
            key = tuple(u for u, _ in terms) + (-1,) * (n - len(terms))
            if prev_key is not None:
                assert prev_key < key, (a, n)
            prev_key = key


def test_shift_apply_worked_values():
    assert shift_apply(3, 3, 0, 1) == 9
    assert shift_apply(0, 5, 1, 1) == 0
    assert shift_apply(5, 2, 1, 1) == 7


def test_shift_identity_is_identity():
    for n in range(1, 7):
        for a in range(0, 400):
            assert shift_apply(a, n, 0, 0) == a


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9))
def test_shift_identity_property(a, n):
    assert shift_apply(a, n, 0, 0) == a


def test_shift_negative_lower_index_uses_total_conventions():
    # representation of 3 at index 3 is C(3,3)+C(2,2)+C(1,1); shifting by
    # (-1, 0) gives C(3,2)+C(2,1)+C(1,0) = 3+2+1
    assert shift_apply(3, 3, -1, 0) == 6
    # the (1,1) term drops to lower index 0 and contributes 1, not an error
    assert shift_apply(1, 1, -1, 0) == 1
    # pushing the lower index negative kills every term
    assert shift_apply(3, 1, -2, 0) == 0


def test_scan_split_identity_small():
    assert scan_split_shift_identity(3, 3, 2) == []


def test_walk_matches_greedy_representations():
    for n in range(1, 9):
        assert binom._macaulay_walk(n, 4999) == [macaulay_rep(a, n).terms for a in range(5000)], n


def test_walk_carries_across_a_whole_representation():
    # C(k, n) - 1 has n terms (k-1, n), ..., (k-n, 1); one more merges them all into (k, n)
    for n, k in ((1, 4000), (2, 90), (5, 15), (8, 14)):
        walk = binom._macaulay_walk(n, math.comb(k, n))
        assert walk[-2] == tuple((k - i, n + 1 - i) for i in range(1, n + 1))
        assert walk[-1] == ((k, n),)


def reference_scan(m_max, d_max, s_max):
    """The per-split definition: two shift_apply calls per (m, d, s, a)."""
    failures = []
    for m in range(1, m_max + 1):
        for d in range(1, d_max + 1):
            total = math.comb(m + d, d)
            for s in range(1, s_max + 1):
                for a in range(total + 1):
                    if shift_apply(a, m, 0, s) + shift_apply(total - a, d, s, s) != math.comb(m + d + s, d + s):
                        failures.append((a, total - a, m, d, s))
    return failures


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_scan_agrees_with_the_per_split_definition(m_max, d_max, s_max):
    assert scan_split_shift_identity(m_max, d_max, s_max) == reference_scan(m_max, d_max, s_max)


def test_scan_reports_a_planted_fault_in_order(monkeypatch):
    walk = binom._macaulay_walk

    def faulty_walk(n, count):
        reps = walk(n, count)
        if n == 2:
            reps[2] = ((3, 2),)  # the representation of 3, listed for 2
        return reps

    monkeypatch.setattr(binom, "_macaulay_walk", faulty_walk)
    assert scan_split_shift_identity(2, 2, 2) == [
        (1, 2, 1, 2, 1), (1, 2, 1, 2, 2),
        (2, 1, 2, 1, 1), (2, 1, 2, 1, 2),
        (2, 4, 2, 2, 1), (4, 2, 2, 2, 1), (2, 4, 2, 2, 2), (4, 2, 2, 2, 2),
    ]


def test_shift_difference_bound_worked_values():
    assert shift_difference_bound_holds(3, 3, 1)
    assert shift_apply(3, 3, 0, 1) - 3 == 6 == shift_apply(3, 3, -1, 0)
    assert shift_difference_bound_holds(1, 1, 1)
    assert shift_apply(1, 1, 0, 1) - 1 == 1 == shift_apply(1, 1, -1, 0)
    assert shift_difference_bound_holds(5, 2, 2)
    assert shift_apply(5, 2, 0, 2) - 5 >= shift_apply(5, 2, -1, 1)


def test_shift_monotone_worked_values():
    assert shift_monotone_in_value_holds(1, 2, 1)
    assert shift_apply(0, 2, -1, 1) == 0  # right side vanishes for m = 1
    assert shift_monotone_in_value_holds(3, 3, 1)
    assert shift_monotone_in_value_holds(6, 2, 2)


def test_scan_shift_inequalities_small():
    assert scan_shift_inequalities(40, 4, 3) == []
