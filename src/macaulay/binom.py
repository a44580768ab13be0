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
representation by bisection: ``_walk_chain`` lists the shifted values of
the representations of 0, 1, 2, ... of every index at once, the walk of
index j as blocks over the walk of index j - 1, and ``_split_failures``
builds one such chain per side and per shift for a whole grid.
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


def _walk_chain(counts: Sequence[int], s: int, t: int) -> list[list[int]]:
    """Shifted walks of the indices 0, 1, ..., len(counts) - 1, each built from the one below.

    Entry a of the walk of index j >= 1 equals ``shift_apply(a, j, s, t)``
    for s, t >= 0, and the walk runs at least to a = ``counts[j]``; the walk
    of index 0 is [0] (``counts[0]`` is not read).  For 0 <= b < C(u, j-1)
    the j-th Macaulay representation of C(u, j) + b is (u, j) followed by
    the (j-1)-th representation of b: the greedy step picks u, as
    C(u, j) <= C(u, j) + b < C(u+1, j), and leaves b.  So after its entry 0
    the walk of j is the blocks C(u+t, j+s) + lower[b], b < C(u, j-1), for
    u = j, j+1, ..., where lower is the walk of j-1; block u starts at entry
    C(u, j).  A walk to c with C(u, j) <= c < C(u+1, j) reads the full blocks
    below u, up to entry C(u-1, j-1) - 1 of the walk below, and entries
    0..c - C(u, j) of it for the last block, so each walk is built to the
    larger of its own count and what the walk above reads.
    """
    needs = list(counts)
    for j in range(len(needs) - 1, 1, -1):
        if needs[j]:
            u = _largest_upper_index(needs[j], j)
            needs[j - 1] = max(needs[j - 1], math.comb(u - 1, j - 1) - 1, needs[j] - math.comb(u, j))
    walks = [[0]]
    for j in range(1, len(needs)):
        lower, walk, u = walks[-1], [0], j
        while len(walk) <= needs[j]:
            block = min(math.comb(u, j - 1), needs[j] + 1 - len(walk))
            walk += map(math.comb(u + t, j + s).__add__, lower[:block])
            u += 1
        walks.append(walk)
    return walks


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

    Per shift, one ``_walk_chain`` holds every left walk, the walk of m
    running to C(m + max(ds), max(ds)), and one every right walk, the walk
    of d running to C(max(ms) + d, d); each shift's chains are freed before
    the next shift's are built.  A grid point whose splits all sum to the
    target costs one pass at C speed; the others are read split by split,
    which also raises ``IndexError`` on a walk that is too short.  An empty
    grid has no failures.
    """
    m_top, d_top = max(ms, default=0), max(ds, default=0)
    failures = []
    for s in shifts:
        lefts = _walk_chain([math.comb(m + d_top, d_top) if m in ms else 0 for m in range(m_top + 1)], 0, s)
        rights = _walk_chain([math.comb(m_top + d, d) if d in ds else 0 for d in range(d_top + 1)], s, s)
        for m in ms:
            left = lefts[m]
            for d in ds:
                right = rights[d]
                total = math.comb(m + d, d)
                target = math.comb(m + d + s, d + s)
                if list(map(add, left[:total + 1], right[total::-1])).count(target) <= total:
                    failures += [
                        (a, total - a, m, d, s)
                        for a in range(total + 1)
                        if left[a] + right[total - a] != target
                    ]
        del lefts, rights
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
