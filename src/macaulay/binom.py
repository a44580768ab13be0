"""Exact binomial coefficients, Macaulay representations, and shift operators.

Every nonnegative integer A has a unique expansion

    A = C(a_n, n) + C(a_{n-1}, n-1) + ... + C(a_delta, delta)

with a_n > a_{n-1} > ... > a_delta, a_j >= j and delta >= 1 (the n-th
Macaulay representation; A = 0 gets the empty expansion).  The shift
operator replaces each C(a_j, j) by C(a_j + t, j + s) and sums.  These two
devices drive all the growth bounds in the rest of the package, so
everything here is arbitrary-precision integer arithmetic with no rounding
of any kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


def binom_coeff(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) extended to a total function.

    Returns 0 when b < 0 or a < b, and 1 when b == 0 <= a.  This is the
    convention every shifted term below relies on: shifts may push a lower
    index to zero or below, and such terms must contribute 1 or 0 rather
    than raise.
    """
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True, slots=True)
class MacaulayRep:
    """The n-th Macaulay representation of a nonnegative integer.

    ``terms`` holds pairs (a_j, j) with j strictly decreasing from n down
    to some delta >= 1; each pair stands for C(a_j, j).  Upper indices are
    strictly decreasing and a_j >= j.  The empty tuple represents 0.
    """

    n: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"representation index must be >= 1, got {self.n}")
        prev_a = None
        prev_j = self.n + 1
        for a, j in self.terms:
            if not 1 <= j < prev_j or j > self.n:
                raise ValueError(f"lower indices must strictly decrease from {self.n}: {self.terms}")
            if a < j:
                raise ValueError(f"term ({a},{j}) violates a_j >= j")
            if prev_a is not None and a >= prev_a:
                raise ValueError(f"upper indices must strictly decrease: {self.terms}")
            prev_a, prev_j = a, j


def macaulay_rep(a: int, n: int) -> MacaulayRep:
    """Compute the unique n-th Macaulay representation of a >= 0.

    Greedy construction: at index j pick the largest upper index u with
    C(u, j) <= remainder, subtract, and continue at j - 1 until the
    remainder is zero.  The classical uniqueness argument shows this is
    the one and only valid expansion.
    """
    if a < 0:
        raise ValueError(f"cannot represent negative integer {a}")
    if n < 1:
        raise ValueError(f"representation index must be >= 1, got {n}")
    terms = []
    remainder = a
    j = n
    while remainder > 0:
        u = _largest_upper_index(remainder, j)
        terms.append((u, j))
        remainder -= math.comb(u, j)
        j -= 1
    return MacaulayRep(n, tuple(terms))


def _largest_upper_index(bound: int, j: int) -> int:
    """Largest u with C(u, j) <= bound, for bound >= 1. Exponential bracket + bisection."""
    lo = j  # C(j, j) = 1 <= bound
    hi = j + 1
    while math.comb(hi, j) <= bound:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, j) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


def rep_value(rep: MacaulayRep) -> int:
    """Sum the binomial terms of a representation (inverse of macaulay_rep)."""
    return sum(math.comb(a, j) for a, j in rep.terms)


def shift_apply(a: int, n: int, s: int, t: int) -> int:
    """Apply the shift operator to the n-th Macaulay representation of a.

    Each term C(a_j, j) becomes binom_coeff(a_j + t, j + s); the total-
    function conventions make this well defined for negative shifts.
    Returns 0 when a == 0 (empty representation).
    """
    rep = macaulay_rep(a, n)
    return sum(binom_coeff(u + t, j + s) for u, j in rep.terms)


def scan_split_shift_identity(m_max: int, d_max: int, s_max: int) -> list[tuple[int, int, int, int, int]]:
    """Exhaustively test the complementary-split shift identity

        a_(m)|_0^s  +  b_(d)|_s^s  ==  C(m+d+s, d+s)

    over every split a + b = C(m+d, d), for every 1 <= m <= m_max,
    1 <= d <= d_max, 1 <= s <= s_max.

    Returns the list of failing (a, b, m, d, s) tuples, empty on success,
    ordered by m, then d, then s, then a.
    """
    shifts = range(1, s_max + 1)
    failures = []
    for m in range(1, m_max + 1):
        for d in range(1, d_max + 1):
            failures += _split_failures(m, d, shifts)
    return failures


def _macaulay_walk(n: int, count: int) -> list[tuple[tuple[int, int], ...]]:
    """The n-th Macaulay representations of 0, 1, ..., count, in order.

    Entry a equals ``macaulay_rep(a, n).terms``.  Each representation is
    built from the one before; with terms (a_n, n), ..., (a_delta, delta)
    for a, the successor a + 1 is:

    * from 0 (no terms): ``[(n, n)]``, since C(n, n) = 1;
    * delta >= 2: append (delta-1, delta-1), which adds C(delta-1, delta-1)
      = 1; a_delta >= delta > delta-1 keeps the upper indices strictly
      decreasing;
    * delta = 1: bump (a_1, 1) to (a_1+1, 1), which adds
      C(a_1+1, 1) - C(a_1, 1) = 1.  While the term before the bumped term
      (u, j) is (u, j+1), the two merge by Pascal's rule,
      C(u, j+1) + C(u, j) = C(u+1, j+1), into (u+1, j+1); the term before
      that has upper index >= u+1, so after the last merge the upper
      indices strictly decrease again.

    Each result is a valid representation of a + 1 (lower indices strictly
    decrease from n to some delta >= 1, upper indices strictly decrease,
    a_j >= j), and the n-th representation is unique, so it is the greedy
    one ``macaulay_rep`` builds.  Every merge removes a term and every step
    adds at most one, so the carries cost amortized O(1) per step, as in a
    binary counter.
    """
    terms: list[tuple[int, int]] = []
    reps: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(count):
        if not terms:
            terms.append((n, n))
        elif terms[-1][1] >= 2:
            delta = terms[-1][1]
            terms.append((delta - 1, delta - 1))
        else:
            u, j = terms.pop()
            u += 1
            while terms and terms[-1][0] == u:
                terms.pop()
                u, j = u + 1, j + 1
            terms.append((u, j))
        reps.append(tuple(terms))
    return reps


class _TermValues(dict):
    """C(u+t, j+s) for each term (u, j), as in ``shift_apply``, computed on first use."""

    def __init__(self, s: int, t: int) -> None:
        self.s, self.t = s, t

    def __missing__(self, term: tuple[int, int]) -> int:
        u, j = term
        value = self[term] = math.comb(u + self.t, j + self.s)
        return value


def _split_failures(m: int, d: int, shifts: Iterable[int]) -> list[tuple[int, int, int, int, int]]:
    """Failing (a, b, m, d, s) splits of the split identity, in s then a order.

    For every s in ``shifts`` and every split a + b = C(m+d, d) it checks
    the split identity a_(m)|_0^s + b_(d)|_s^s == C(m+d+s, d+s), that is

        sum C(u+s, j) over rep_m(a)  +  sum C(u+s, j+s) over rep_d(b)
            ==  C(m+d+s, d+s).

    The representations of 0..C(m+d, d) are walked once per index and
    reused for every s; each distinct term's value is computed once per s.
    Every term (u, j) has u >= j >= 1 and every s here is >= 1, so both
    binomials have 0 <= lower index <= upper index and ``math.comb`` needs
    none of ``binom_coeff``'s guards.
    """
    total = math.comb(m + d, d)
    reps_m = _macaulay_walk(m, total)
    reps_d = _macaulay_walk(d, total)
    failures = []
    for s in shifts:
        target = math.comb(m + d + s, d + s)
        left_term = _TermValues(0, s).__getitem__
        right_term = _TermValues(s, s).__getitem__
        left = [sum(map(left_term, rep)) for rep in reps_m]
        right = [sum(map(right_term, rep)) for rep in reps_d]
        failures += [
            (a, total - a, m, d, s)
            for a, value in enumerate(left)
            if value + right[total - a] != target
        ]
    return failures


def shift_difference_bound_holds(m: int, n: int, l: int) -> bool:
    """Check  m_(n)|_0^l - m  >=  m_(n)|_{-1}^{l-1}  for m, n, l >= 1."""
    if min(m, n, l) < 1:
        raise ValueError("m, n, l must all be >= 1")
    return shift_apply(m, n, 0, l) - m >= shift_apply(m, n, -1, l - 1)


def shift_monotone_in_value_holds(m: int, n: int, k: int) -> bool:
    """Check  m_(n)|_{-1}^k  >=  (m-1)_(n)|_{-1}^k  for m >= 1."""
    return shift_apply(m, n, -1, k) >= shift_apply(m - 1, n, -1, k)


def scan_shift_inequalities(m_max: int, n_max: int, shift_max: int) -> list[tuple[str, int, int, int]]:
    """Scan both shift inequalities over 1 <= m <= m_max, 1 <= n <= n_max,
    1 <= l (or k) <= shift_max.  Returns failing cases, empty on success.
    """
    failures = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for w in range(1, shift_max + 1):
                if not shift_difference_bound_holds(m, n, w):
                    failures.append(("difference", m, n, w))
                if not shift_monotone_in_value_holds(m, n, w):
                    failures.append(("monotone", m, n, w))
    return failures
