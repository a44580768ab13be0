"""Exact binomial coefficients, Macaulay representations, and shift operators.

Every nonnegative integer A has a unique expansion

    A = C(a_n, n) + C(a_{n-1}, n-1) + ... + C(a_delta, delta)

with a_n > a_{n-1} > ... > a_delta, a_j >= j and delta >= 1 (the n-th
Macaulay representation; A = 0 gets the empty expansion).  The shift
operator replaces each C(a_j, j) by C(a_j + t, j + s) and sums.  These two
devices drive all the growth bounds in the rest of the package, so
everything here is arbitrary-precision integer arithmetic with no rounding
of any kind.

The split-identity scans (``lemma-scan`` and ``bridge``) never build a
representation by bisection: ``_shifted_walk`` steps through the
representations of 0, 1, 2, ... in order, keeping a running shifted sum,
and ``_split_failures`` walks each index once per shift for a whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence


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
    1 <= d <= d_max, 1 <= s <= s_max, in one pass over the grid.

    Returns the list of failing (a, b, m, d, s) tuples, empty on success,
    ordered by m, then d, then s, then a.
    """
    return _split_failures(range(1, m_max + 1), range(1, d_max + 1), range(1, s_max + 1))


def _shifted_walk(n: int, count: int, s: int, t: int) -> list[int]:
    """Shifted values of the n-th Macaulay representations of 0, 1, ..., count.

    Entry a equals ``shift_apply(a, n, s, t)`` for s, t >= 0: the sum of
    C(u+t, j+s) over the terms (u, j) of the representation of a.  Each
    representation is built from the one before; with terms (a_n, n), ...,
    (a_delta, delta) for a, the successor a + 1 is:

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
    one ``macaulay_rep`` builds.  The term at position k has lower index
    n - k, so only the upper indices are kept.  The walk keeps the running
    sum of its terms' values: an appended term adds its value, a carry
    subtracts the value of every term it pops.  Every merge removes a term
    and every step adds one, so a step costs amortized O(1), as in a
    binary counter, and no representation is read twice.  The walk to a
    count c is the first c + 1 entries of any longer walk.
    """
    uppers: list[int] = []
    values: list[int] = []
    total = 0
    sums = [0]
    for _ in range(count):
        k = len(uppers)
        if k < n:
            u = n - k
        else:
            u = uppers.pop() + 1
            total -= values.pop()
            while uppers and uppers[-1] == u:
                uppers.pop()
                total -= values.pop()
                u += 1
            k = len(uppers)
        value = math.comb(u + t, n - k + s)
        uppers.append(u)
        values.append(value)
        total += value
        sums.append(total)
    return sums


def _split_failures(
    ms: Sequence[int], ds: Sequence[int], shifts: Iterable[int]
) -> list[tuple[int, int, int, int, int]]:
    """Failing (a, b, m, d, s) splits of the split identity over a grid.

    For every m in ``ms``, d in ``ds``, s in ``shifts`` and every split
    a + b = C(m+d, d) it checks the split identity
    a_(m)|_0^s + b_(d)|_s^s == C(m+d+s, d+s), that is

        sum C(u+s, j) over rep_m(a)  +  sum C(u+s, j+s) over rep_d(b)
            ==  C(m+d+s, d+s),

    and returns the failures ordered by m, then d, then s, then a.

    Each index is walked once per shift, to the longest count the grid
    needs: the walk of 0..c is a prefix of the walk of 0..c' for c < c',
    so the left walk of m runs to C(m + max(ds), max(ds)) and the right
    walk of d to C(max(ms) + d, d).  One shift at a time keeps every
    right walk and the current m's left walk.  A grid point whose splits
    all sum to the target costs one pass at C speed; the others are read
    split by split, which also raises ``IndexError`` on a walk that is too
    short.  An empty grid has no failures.
    """
    m_top, d_top = max(ms, default=0), max(ds, default=0)
    failures = []
    for s in shifts:
        rights = [(d, _shifted_walk(d, math.comb(m_top + d, d), s, s)) for d in ds]
        for m in ms:
            left = _shifted_walk(m, math.comb(m + d_top, d_top), 0, s)
            for d, right in rights:
                total = math.comb(m + d, d)
                target = math.comb(m + d + s, d + s)
                if list(map(add, left[:total + 1], right[total::-1])).count(target) <= total:
                    failures += [
                        (a, total - a, m, d, s)
                        for a in range(total + 1)
                        if left[a] + right[total - a] != target
                    ]
    failures.sort(key=lambda f: (f[2], f[3], f[4], f[0]))
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
