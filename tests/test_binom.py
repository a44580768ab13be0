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
from macaulay.cli import main


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
    """Entry a of the walk is the shifted sum over macaulay_rep(a, n), as in shift_apply."""
    for n in range(1, 9):
        for s in range(3):
            for t in range(3):
                assert binom._shifted_walk(n, 4999, s, t) == [shift_apply(a, n, s, t) for a in range(5000)], (n, s, t)


def test_walk_carries_across_a_whole_representation():
    # C(k, n) - 1 has n terms (k-1, n), ..., (k-n, 1); one more merges them all into (k, n),
    # so the running sum must drop every popped term's shifted value
    for n, k in ((1, 4000), (2, 90), (5, 15), (8, 14)):
        for s, t in ((0, 1), (1, 1), (2, 2)):
            walk = binom._shifted_walk(n, math.comb(k, n), s, t)
            assert walk[-2] == sum(math.comb(k - i + t, n + 1 - i + s) for i in range(1, n + 1))
            assert walk[-1] == math.comb(k + t, n + s)


def test_a_walk_is_a_prefix_of_every_longer_walk():
    for n in range(1, 7):
        for s, t in ((0, 1), (2, 2), (1, 0)):
            longest = binom._shifted_walk(n, 3000, s, t)
            for count in (0, 1, n, n + 1, math.comb(n + 3, n), 2999):
                assert binom._shifted_walk(n, count, s, t) == longest[:count + 1], (n, s, t, count)


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


def plant(monkeypatch, faults):
    """Make the walk list, for each (n, s, t, a, b) in ``faults``, the shifted
    value of the representation of b as entry a of the n-th walk."""
    walk = binom._shifted_walk

    def faulty_walk(n, count, s, t):
        sums = walk(n, count, s, t)
        for n_, s_, t_, a, b in faults:
            if (n, s, t) == (n_, s_, t_) and a <= count:
                sums[a] = shift_apply(b, n, s, t)
        return sums

    monkeypatch.setattr(binom, "_shifted_walk", faulty_walk)


def test_scan_reports_a_planted_fault_in_order(monkeypatch):
    # the representation of 3 listed for 2 at n = 2, on both sides and at both shifts
    plant(monkeypatch, [(2, s_, t_, 2, 3) for s in (1, 2) for s_, t_ in ((0, s), (s, s))])
    assert scan_split_shift_identity(2, 2, 2) == [
        (1, 2, 1, 2, 1), (1, 2, 1, 2, 2),
        (2, 1, 2, 1, 1), (2, 1, 2, 1, 2),
        (2, 4, 2, 2, 1), (4, 2, 2, 2, 1), (2, 4, 2, 2, 2), (4, 2, 2, 2, 2),
    ]


def test_a_fault_across_two_shifts_and_two_degrees_is_reported_in_order(monkeypatch):
    """Right walks of d = 2 and d = 3 at s = 1 and s = 3 list a wrong value; the
    failures are exactly the per-split definition's under the same fault."""
    faults = [(2, 1, 1, 4, 5), (3, 1, 1, 2, 7), (2, 3, 3, 1, 2), (3, 3, 3, 6, 4)]
    wrong = {(n, s, a): b for n, s, _, a, b in faults}

    def right(b, d, s):
        return shift_apply(wrong.get((d, s, b), b), d, s, s)

    expected = [
        (a, math.comb(m + d, d) - a, m, d, s)
        for m in range(1, 4)
        for d in range(1, 4)
        for s in range(1, 4)
        for a in range(math.comb(m + d, d) + 1)
        if shift_apply(a, m, 0, s) + right(math.comb(m + d, d) - a, d, s) != math.comb(m + d + s, d + s)
    ]
    assert {(d, s) for _, _, _, d, s in expected} == {(2, 1), (3, 1), (2, 3), (3, 3)}
    plant(monkeypatch, faults)
    assert scan_split_shift_identity(3, 3, 3) == expected


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_walk_one_step_short_is_an_internal_fault(monkeypatch, capsys, side):
    """A walk that stops before the split count must raise, not answer: exit 3."""
    walk = binom._shifted_walk

    def short_walk(n, count, s, t):
        right = s == t  # a left walk is shifted by (0, s), a right walk by (s, s)
        return walk(n, count - (right == (side == "right")), s, t)

    monkeypatch.setattr(binom, "_shifted_walk", short_walk)
    with pytest.raises(IndexError):
        scan_split_shift_identity(2, 2, 1)
    for argv in (["lemma-scan", "--m-max", "3", "--d-max", "2", "--s-max", "2"], ["bridge", "4", "3"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: list index out of range\n"


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
