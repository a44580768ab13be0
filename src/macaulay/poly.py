"""Homogeneous polynomials over exact scalars, graded ideals, and Hilbert functions.

A monomial is an exponent tuple, a polynomial is a dict from exponent
tuples to nonzero exact coefficients, and the degree-d piece of an ideal
is the row space of the matrix of the monomial multiples of its
generators, less the rows that Buchberger's product criterion proves
redundant.  The generators are first autoreduced, once per ideal and
degree by degree: each is divided in grevlex by the lower- and
same-degree ones kept before it, and dropped if it reaches zero.  Each
division step adds a multiple of a kept generator, which keeps the ideal
the same, so the rows span the same I_d with fewer and sparser rows.
Dimensions come out of exact elimination on integer rows (Gaussian rows
by fraction-free elimination over the Gaussian integers), so every
Hilbert function value is exact; an optional mode checks each rank
against a modular elimination of the full, unpruned matrix of the given
generators over three fixed large primes, which covers the
autoreduction and the pruning.

``hilbert_records`` takes the degrees of one ideal in a single pass.  Once
H_{R/I}(d) = 0, every later degree is proven full and filled without
rows or elimination, so neither mode checks it modulo a prime.

Polynomial coefficients are ints or ``fractions.Fraction``s; the document
readers read an integral value as an int.  Arithmetic uses
field operations only, and ``_exact_parts`` reads a non-real scalar
through its ``re``/``im`` parts, so Gaussian-rational coefficients (see
:mod:`macaulay.hermitian`) work unchanged.  The matrix path reads each
generator once, into one format, ``(degree, {monomial: value})`` with
primitive integer or Gaussian-integer values, that the autoreduction,
the graded-piece rows and the modular check all take; rational and
Gaussian ideals are reduced on one path, and the rank routines take the
rows as they are.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Mapping, NamedTuple

from .binom import _split_failures, shift_apply

Monomial = tuple[int, ...]

# The exact scalar types, matched by ``type(v) in _EXACT_TYPES`` so that a bool is refused.
_EXACT_TYPES = (int, Fraction)


@lru_cache(maxsize=None)
def monomials_of_degree(n_vars: int, d: int) -> tuple[Monomial, ...]:
    """All C(n_vars-1+d, d) exponent tuples of total degree d.

    Order contract: graded reverse lexicographic, descending, with
    z1 > z2 > ... > zn.  Concretely the tuples are sorted ascending by
    their reversal, e.g. for n=3, d=2:

        (2,0,0), (1,1,0), (0,2,0), (1,0,1), (0,1,1), (0,0,2)

    The order is deterministic across runs and platforms; matrix columns
    and Hermitian form bases elsewhere in the package index into it.
    """
    if n_vars < 1:
        raise ValueError(f"need at least one variable, got {n_vars}")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    exps = []
    for variables in combinations_with_replacement(range(n_vars), d):  # a multiset of d variables
        e = [0] * n_vars
        for i in variables:
            e[i] += 1
        exps.append(tuple(e))
    exps.sort(key=lambda e: e[::-1])
    return tuple(exps)


def monomial_degree(m: Monomial) -> int:
    return sum(m)


class HomogPoly:
    """A homogeneous polynomial: sparse exponent-tuple terms, exact coefficients.

    The zero polynomial keeps an explicit degree tag so graded arithmetic
    stays well typed.  Zero coefficients are never stored.
    """

    __slots__ = ("n_vars", "degree", "terms")

    def __init__(self, n_vars: int, degree: int, terms: Mapping[Monomial, object] | None = None):
        if n_vars < 1:
            raise ValueError(f"need at least one variable, got {n_vars}")
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        clean: dict[Monomial, object] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != n_vars:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {n_vars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if monomial_degree(mono) != degree:
                raise ValueError(f"monomial {mono} has degree {monomial_degree(mono)}, expected {degree}")
            if coeff:
                clean[mono] = coeff
        self.n_vars = n_vars
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, n_vars: int, degree: int) -> "HomogPoly":
        return cls(n_vars, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.n_vars, self.degree, self.terms) == (other.n_vars, other.degree, other.terms)

    def __hash__(self) -> int:
        return hash((self.n_vars, self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        if self.degree != other.degree:
            raise ValueError(f"cannot add degrees {self.degree} and {other.degree}")
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return HomogPoly(self.n_vars, self.degree, merged)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.n_vars, self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            return poly_multiply(self, other)
        return HomogPoly(self.n_vars, self.degree, {mono: coeff * other for mono, coeff in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_zero():
            return f"HomogPoly(0; n_vars={self.n_vars}, degree={self.degree})"
        bits = " + ".join(f"{c}*z^{list(m)}" for m, c in sorted(self.terms.items(), key=lambda kv: kv[0][::-1]))
        return f"HomogPoly({bits})"


def variable(i: int, n_vars: int) -> HomogPoly:
    """The degree-1 polynomial z_{i+1} (zero-based index i)."""
    if not 0 <= i < n_vars:
        raise ValueError(f"variable index {i} out of range for {n_vars} variables")
    exps = tuple(1 if k == i else 0 for k in range(n_vars))
    return HomogPoly(n_vars, 1, {exps: Fraction(1)})


def monomial_poly(exponents: Iterable[int], coeff=Fraction(1)) -> HomogPoly:
    """The single-term polynomial coeff * z^exponents."""
    exps = tuple(exponents)
    return HomogPoly(len(exps), monomial_degree(exps), {exps: coeff})


def poly_multiply(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Exact product of two homogeneous polynomials over the same variables."""
    if f.n_vars != g.n_vars:
        raise ValueError(f"variable count mismatch: {f.n_vars} vs {g.n_vars}")
    prod: dict[Monomial, object] = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            mono = tuple(ea + eb for ea, eb in zip(ma, mb))
            prod[mono] = prod.get(mono, 0) + ca * cb
    return HomogPoly(f.n_vars, f.degree + g.degree, prod)


@dataclass(frozen=True)
class GradedIdeal:
    """A homogeneous ideal given by finitely many homogeneous generators.

    An empty generator tuple is the zero ideal.  Generators may have
    different degrees but must be nonzero and share the variable count.
    """

    n_vars: int
    generators: tuple[HomogPoly, ...]

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise ValueError(f"need at least one variable, got {self.n_vars}")
        for g in self.generators:
            if g.n_vars != self.n_vars:
                raise ValueError("generator variable count mismatch")
            if g.is_zero():
                raise ValueError("zero polynomial is not a valid generator")

    @cached_property
    def _autoreduction(self) -> "_Autoreduction":
        """This ideal's generators in the matrix path's format and their
        autoreduction, made on first use and then shared by every degree;
        building an ideal converts nothing."""
        return _Autoreduction(self.n_vars, _primitive_integers(self.generators))

    @classmethod
    def zero(cls, n_vars: int) -> "GradedIdeal":
        return cls(n_vars, ())


class HilbertRecord(NamedTuple):
    """H_I(d) and H_{R/I}(d) at one degree; the two always sum to dim R_d."""

    degree: int
    h_ideal: int
    h_quotient: int


class BoundChecks(NamedTuple):
    """Outcome of the three growth-bound checks for the step d -> d+1."""

    degree: int
    forward_ok: bool
    quotient_ok: bool
    reverse_ok: bool


# ---------------------------------------------------------------------------
# Exact rank machinery
# ---------------------------------------------------------------------------

def _exact_parts(values: Iterable) -> tuple[list[int], list[int], int]:
    """Exact scalars as (re, im, den): int lists with value k equal to
    (re[k] + i*im[k]) / den, over the least positive common denominator.
    The package's one scalar reader: it takes ints, Fractions, ``(re, im)``
    pairs of those and objects with such ``re``/``im`` attributes (Gaussian
    rationals), and raises ``TypeError`` on anything else, bools included."""
    re, im = [], []
    for v in values:
        if type(v) in _EXACT_TYPES:
            re.append(v)
            im.append(0)
            continue
        a, b = v if type(v) is tuple and len(v) == 2 else (getattr(v, "re", None), getattr(v, "im", None))
        if not (type(a) in _EXACT_TYPES and type(b) in _EXACT_TYPES):
            raise TypeError(f"not an exact scalar: {v!r}")
        re.append(a)
        im.append(b)
    den = math.lcm(*{x.denominator for part in (re, im) for x in part})
    return [x.numerator * (den // x.denominator) for x in re], [x.numerator * (den // x.denominator) for x in im], den


def _cancel(h: dict[int, object], f, a, row: list[tuple[int, object]]) -> None:
    """h <- (a*h - f*row) / c in place, with c the gcd of the integer parts
    of the result, so h ends primitive.  Values are ints, or ``(re, im)``
    int pairs multiplied as Gaussian integers.  f and a are the entries of
    h and row in one column, which the step cancels and ``row`` omits; both
    are first divided by the gcd of their parts.  This is the row step of
    the autoreduction and of ``_echelon_rank``, whose int rows may hold a
    zero entry."""
    if type(a) is int:
        g = math.gcd(a, f)
        a, f = a // g, f // g
        if a != 1:
            for k in h:
                h[k] *= a
        for k, v in row:
            x = h.get(k, 0) - f * v
            if x:
                h[k] = x
            else:
                h.pop(k, None)  # absent only beside a zero entry
        content = math.gcd(*h.values())
        if content > 1:  # 0 if h is empty or all zero entries, which the pivot check refuses later
            for k in h:
                h[k] //= content
        return
    g = math.gcd(*a, *f)
    (ar, ai), (fr, fi) = (a[0] // g, a[1] // g), (f[0] // g, f[1] // g)
    for k, (xr, xi) in h.items():
        h[k] = (ar * xr - ai * xi, ar * xi + ai * xr)
    for k, (yr, yi) in row:
        xr, xi = h.get(k, (0, 0))
        zr, zi = xr - fr * yr + fi * yi, xi - fr * yi - fi * yr
        if zr or zi:
            h[k] = (zr, zi)
        else:
            del h[k]
    content = math.gcd(*(x for pair in h.values() for x in pair))
    if content > 1:
        for k, (xr, xi) in h.items():
            h[k] = (xr // content, xi // content)


def _echelon_rank(rows: list[dict[int, int]]) -> int:
    """Rank of nonzero integer rows; the rows are consumed.

    Rows are bucketed by leading column, and the columns of the input are
    swept once in ascending order.  At a column with a nonempty bucket the
    shortest row there is the pivot row; since no row has an earlier entry,
    the other rows of that bucket are exactly the rows that hold the pivot
    column.  Each one is updated in place by ``_cancel``, to
    ``(a*row - f*prow) / content`` with a and f the pivot entry and the
    row's entry over their gcd, and moves to the bucket of its new leading
    column.  Every other row is left as it is.

    One sweep suffices because leads only grow: an updated row has lost
    the pivot column and had no earlier entry, so its new lead lies after
    the pivot column, in a bucket the sweep has yet to reach.  A zero
    pivot entry raises ArithmeticError; any other zero entry leaves the
    rank true.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    rank = 0
    for pcol in sorted(set().union(*rows)):
        bucket = buckets.pop(pcol, None)
        if bucket is None:
            continue
        prow = min(bucket, key=len)
        p = prow.pop(pcol)
        if not p:
            raise ArithmeticError(f"zero pivot entry in column {pcol}")
        rank += 1
        if len(bucket) == 1:
            continue
        tail = list(prow.items())
        for row in bucket:
            if row is prow:
                continue
            _cancel(row, row.pop(pcol), p, tail)
            if row:
                buckets.setdefault(min(row), []).append(row)
    return rank


def _bareiss_factor(pivots: list[tuple[int, int]], k: int, a_p: int, a_r: int) -> tuple[int, int, int]:
    """p_{k-1} / (p_{a_p} * p_{a_r}) as ``(gr, gi, norm)``, the Gaussian
    rational (gr + i*gi) / norm with gcd(gr, gi, norm) = 1, where
    ``pivots[j]`` is p_j (see ``_gaussian_rank``)."""
    if a_p == k - 1 or a_r == k - 1:
        dr, di = pivots[a_r if a_p == k - 1 else a_p]
        gr, gi = dr, -di
    else:
        (xr, xi), (yr, yi), (lr, li) = pivots[a_p], pivots[a_r], pivots[k - 1]
        dr, di = xr * yr - xi * yi, xr * yi + xi * yr
        gr, gi = lr * dr + li * di, li * dr - lr * di
    norm = dr * dr + di * di
    g = math.gcd(gr, gi, norm)
    return gr // g, gi // g, norm // g


def _gaussian_rank(rows: list[dict[int, tuple[int, int]]]) -> int:
    """Rank of nonzero Gaussian-integer rows (``(re, im)`` int pairs) by
    fraction-free (Bareiss) elimination; the rows are consumed.

    Rows are bucketed by leading column and the columns are swept once, as
    in ``_echelon_rank``, so step k (pivot column c_k, pivot row P, pivot
    entry pi) writes only the rows R of its bucket, the rows that hold c_k;
    f is the entry of R in c_k.  Every row records the step at which it
    was last written, 0 for an input row.  With p_0 = 1, step k writes

        R <- (pi*R - f*P) * p_{k-1} / (p_{a_P} * p_{a_R}),
        p_k = pi * p_{k-1} / p_{a_P},

    where a_P and a_R are the steps at which P and R were last written.

    Why the divisions are exact.  Let p_k be the determinant of the input
    on the rows P_1..P_k and columns c_1..c_k, and B_k(R) the row whose
    entry in column c is the determinant on rows P_1..P_k, R and columns
    c_1..c_k, c: both are minors of a Gaussian-integer matrix, so they are
    Gaussian integers.  Sylvester's identity gives Bareiss's recurrence

        B_k(R) = (p_k * B_{k-1}(R) - B_{k-1}(R)[c_k] * B_{k-1}(P_k)) / p_{k-1},

    with p_k = B_{k-1}(P_k)[c_k].  A row last written at step a holds
    B_a(R), and its lead lies after c_{a+1}..c_{k-1}, so B_j(R)[c_{j+1}] = 0
    for a <= j < k-1, and the recurrence gives B_{k-1}(R) = B_a(R) *
    p_{k-1} / p_a.  Putting this in for P and for R gives the two formulas
    above for p_k and B_k(R), which are Gaussian integers, so both
    divisions leave no remainder; a nonzero one raises ArithmeticError.
    The entries are (k+1)-minors, bounded by Hadamard's bound.  B_k(R) is
    zero exactly when R lies in the span of P_1..P_k, so the number of
    steps is the rank.  Zero entries are treated as in ``_echelon_rank``.
    """
    buckets: dict[int, list[tuple[dict[int, tuple[int, int]], int]]] = {}
    for row in rows:
        buckets.setdefault(min(row), []).append((row, 0))
    pivots = [(1, 0)]  # pivots[k] = p_k
    for pcol in sorted(set().union(*rows)):
        bucket = buckets.pop(pcol, None)
        if bucket is None:
            continue
        k = len(pivots)
        prow, a_p = min(bucket, key=lambda entry: len(entry[0]))
        pr, pi = prow.pop(pcol)
        if not (pr or pi):
            raise ArithmeticError(f"zero pivot entry in column {pcol}")
        # p_k = pi * p_{k-1} / p_{a_P}: the factor at a_R = 0, as p_0 = 1
        gr, gi, norm = _bareiss_factor(pivots, k, a_p, 0)
        (kr, rest_r), (ki, rest_i) = divmod(pr * gr - pi * gi, norm), divmod(pr * gi + pi * gr, norm)
        if rest_r or rest_i:
            raise ArithmeticError(f"Bareiss pivot division by {norm} leaves a remainder at step {k}")
        pivots.append((kr, ki))
        if len(bucket) == 1:
            continue
        tail = list(prow.items())
        # rows last written at the same step share the factor and pi times it
        factors: dict[int, tuple[int, int, int, int, int]] = {}
        for row, a_r in bucket:
            if row is prow:
                continue
            fr, fi = row.pop(pcol)
            factor = factors.get(a_r)
            if factor is None:
                gr, gi, norm = _bareiss_factor(pivots, k, a_p, a_r)
                factor = factors[a_r] = (gr, gi, norm, pr * gr - pi * gi, pr * gi + pi * gr)
            gr, gi, norm, ar, ai = factor
            br, bi = fr * gr - fi * gi, fr * gi + fi * gr
            out = {}
            for c, (yr, yi) in tail:  # the columns of P, then those only R holds
                xr, xi = row.pop(c, (0, 0))
                zr, zi = ar * xr - ai * xi - br * yr + bi * yi, ar * xi + ai * xr - br * yi - bi * yr
                if norm != 1:
                    zr, rest_r = divmod(zr, norm)
                    zi, rest_i = divmod(zi, norm)
                    if rest_r or rest_i:
                        raise ArithmeticError(f"Bareiss division by {norm} leaves a remainder at step {k}")
                if zr or zi:
                    out[c] = (zr, zi)
            for c, (xr, xi) in row.items():
                zr, zi = ar * xr - ai * xi, ar * xi + ai * xr
                if norm != 1:
                    zr, rest_r = divmod(zr, norm)
                    zi, rest_i = divmod(zi, norm)
                    if rest_r or rest_i:
                        raise ArithmeticError(f"Bareiss division by {norm} leaves a remainder at step {k}")
                out[c] = (zr, zi)
            if out:
                buckets.setdefault(min(out), []).append((out, k))
    return len(pivots) - 1


def exact_rank(rows: Iterable[dict[int, object]]) -> int:
    """Exact rank of a sparse integer matrix over Q, or Gaussian-integer one over Q(i).

    Row values are all nonzero ints or all nonzero ``(re, im)`` int pairs,
    as the callers convert them where they enter; the first value picks
    the kernel.  The nonempty rows are copied, so the input is left as it
    was.  Integer rows go through ``_echelon_rank``: a step changes just the
    rows that hold the pivot column, each to ``(p/g)*row - (f/g)*prow``
    divided by its content.  Pair rows go through ``_gaussian_rank``, a
    fraction-free elimination over Z[i] that also changes only those rows
    and divides by earlier pivots instead of a content; a division that
    leaves a remainder raises ArithmeticError.

    Entries stay bounded as in fraction-free (Bareiss) elimination.  After
    pivot rows r_1..r_k, a working row of ``_echelon_rank`` is the one
    vector, up to scale, in the span of its original row and r_1..r_k that
    vanishes on the k pivot columns (the pivot rows restricted to those
    columns form an invertible triangular system).  Bareiss with the same
    pivots holds a vector of that span with the same zeros, whose entries
    are (k+1)-minors of the input.  So each working row is the primitive
    part of the Bareiss row, and its entries are bounded by those minors,
    hence by the Hadamard bound; ``_gaussian_rank`` holds the Bareiss rows
    themselves.
    """
    rows = [dict(row) for row in rows if row]
    gaussian = rows and type(next(iter(rows[0].values()))) is tuple
    return _gaussian_rank(rows) if gaussian else _echelon_rank(rows)


@lru_cache(maxsize=None)
def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo the prime p: c^((p-1)/4) for the least c
    with c^((p-1)/2) = -1, that is the least quadratic non-residue by
    Euler's criterion.  It exists iff p = 1 mod 4; any other p raises
    ValueError."""
    if p % 4 == 1:
        for c in range(2, p):
            if pow(c, (p - 1) // 2, p) == p - 1:
                return pow(c, (p - 1) // 4, p)
    raise ValueError(f"-1 has no square root modulo {p}, which is not a prime = 1 mod 4")


def rank_mod_prime(rows: Iterable[dict[int, object]], p: int) -> int:
    """Rank over GF(p) of the integer or Gaussian-integer rows that
    ``exact_rank`` takes, which are left as they were.

    The rows' images modulo p, with the zero images left out, go through
    ``_echelon_rank``'s sweep: bucketed by leading column, the columns
    swept once in ascending order, the shortest row of a bucket its pivot
    row.  Each other row of the bucket becomes row - (f/a)*prow, where a
    and f are the pivot entry and the row's entry, and an entry that
    reaches 0 leaves the row.  The sweep is written out here rather than
    shared, so that the integer kernel's row step takes no branch.

    An int maps to its residue.  A Gaussian integer a + ib maps to
    a + b*iota, where iota = ``_sqrt_minus_one(p)`` squares to -1 modulo p,
    so the Gaussian rows need p = 1 mod 4 (the primes of ``RANK_PRIMES``
    are) and raise ValueError at any other prime.  Both maps are ring
    homomorphisms onto GF(p), so each minor of the images is the image of
    the same minor: the modular rank never exceeds the rank over Q or
    Q(i), and equals it unless p divides every maximal nonzero minor.
    """
    rows = [row for row in rows if row]
    if rows and type(next(iter(rows[0].values()))) is tuple:
        iota = _sqrt_minus_one(p)
        rows = [{c: x for c, (a, b) in row.items() if (x := (a + b * iota) % p)} for row in rows]
    else:
        rows = [{c: x for c, v in row.items() if (x := v % p)} for row in rows]
    rows = [row for row in rows if row]
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        buckets.setdefault(min(row), []).append(row)
    rank = 0
    for pcol in sorted(set().union(*rows)):
        bucket = buckets.pop(pcol, None)
        if bucket is None:
            continue
        rank += 1
        if len(bucket) == 1:
            continue
        prow = min(bucket, key=len)
        scale = p - pow(prow.pop(pcol), -1, p)
        tail = [(c, v * scale % p) for c, v in prow.items()]  # -prow / a, so row + f*tail cancels f
        for row in bucket:
            if row is prow:
                continue
            f, get = row.pop(pcol), row.get
            for c, v in tail:
                x = (get(c, 0) + f * v) % p
                if x:
                    row[c] = x
                else:
                    del row[c]  # f*v is a nonzero residue, so row held c
            if row:
                buckets.setdefault(min(row), []).append(row)
    return rank


# The primes of the modular-checked mode and of ``biform_rank``'s certificate:
# distinct, >= 2**31 and = 1 mod 4, so that i has a square root modulo each,
# and fixed so that every run checks against the same eliminations.
RANK_PRIMES = (2291050477, 4115409913, 3431386421)


# ---------------------------------------------------------------------------
# Graded pieces and Hilbert functions
# ---------------------------------------------------------------------------

# The matrix path's one generator format: (degree, {monomial: value}), the
# values a primitive int vector, or a primitive vector of (re, im) int pairs.
_Generator = tuple[int, dict[Monomial, object]]


def _primitive_integers(generators: tuple[HomogPoly, ...]) -> list[_Generator]:
    """Each generator as ``(degree, terms)``, its coefficients in term order
    scaled to a primitive integer vector: ints if every coefficient is
    real, else ``(re, im)`` int pairs for every generator, so a graded
    piece's rows are one kind.  This is where an ideal's scalars are read.
    Rows and the autoreduction copy the values into new dicts, so nothing
    ever consumes these."""
    parts = [_exact_parts(g.terms.values())[:2] for g in generators]
    gaussian = any(any(im) for _, im in parts)
    out = []
    for g, (re, im) in zip(generators, parts):
        content = math.gcd(*re, *im)
        values = [(a // content, b // content) for a, b in zip(re, im)] if gaussian else [a // content for a in re]
        out.append((g.degree, dict(zip(g.terms, values))))
    return out


class _Autoreduction:
    """One ideal's generators in the matrix path's format, and their
    autoreduction, made degree by degree as graded pieces ask for it.

    ``given`` holds the given generators as ``_primitive_integers`` makes
    them.  ``generators(d)`` reduces every degree <= d not yet reduced and
    returns the kept generators of degree <= d, in the same format.  The
    generators are taken in ascending degree, in the given order within a
    degree.  Each is divided in grevlex by the ones kept so far until no
    term is divisible by a kept leading monomial (LM, the grevlex-largest
    term), and dropped if it reaches zero.  Otherwise it is kept, and its
    LM is cancelled from the kept generators of its own degree; there it
    can only be a lower term, since the new generator was divided by them.
    A division step is h <- (a*h - f*m*g) / c for a kept g, a monomial m
    and nonzero scalars a, f and c (see ``_cancel``), so every kept
    generator stays primitive.

    Why the ideal stays the same.  A step replaces h by a combination of h
    and m*g with a nonzero coefficient on h, and h is recovered from the
    new h and m*g; so the generators kept so far together with h span the
    same ideal before and after.  Dropping a zero and scaling by a nonzero
    scalar change no ideal either.  A generator of degree delta is divided
    only by kept generators of degree <= delta, so the autoreduced
    generators of degree <= e generate the ideal of the given generators of
    degree <= e, for every e; and I_d is spanned by the multiples of the
    generators of degree <= d.  So ``generators(d)`` spans the same
    degree-d piece as the given ideal, and every H_I value is exact and
    unchanged.

    A degree is reduced only when ``generators(d)`` is asked for some d at
    or above it, so no generator above the largest degree asked for is
    ever divided.
    """

    def __init__(self, n_vars: int, given: list[_Generator]):
        self.n_vars = n_vars
        self.given = given
        # the generators not yet divided, in ascending degree and given order, as a stack
        self._pending = sorted(given, key=lambda g: g[0])[::-1]
        self._kept: list[_Generator] = []

    def generators(self, d: int) -> list[_Generator]:
        while self._pending and self._pending[-1][0] <= d:
            self._reduce(self._pending[-1][0])
        return [g for g in self._kept if g[0] <= d]

    def _reduce(self, delta: int) -> None:
        """Divide the given generators of degree delta and keep the nonzero ones.

        Monomials of degree delta are packed as in ``_graded_piece_rows``,
        key(m) = sum of m_i*(delta+1)**i, so the LM of a polynomial is its
        least key, and a division step only adds keys greater than the one
        it removes: the terms are divided in ascending key order off a heap.
        ``divisors`` maps every key that a kept LM divides to the multiple
        m*g that cancels it, as key(m) and the terms of g by key.
        """
        n = self.n_vars
        powers = [(delta + 1) ** i for i in range(n)]
        divisors: dict[int, tuple[int, dict[int, object]]] = {}
        for degree, terms in self._kept:
            keyed = {sum(map(operator.mul, t, powers)): v for t, v in terms.items()}
            lead = min(keyed)
            for m in monomials_of_degree(n, delta - degree):
                mk = sum(map(operator.mul, m, powers))
                divisors.setdefault(lead + mk, (mk, keyed))
        kept: list[dict[int, object]] = []
        while self._pending and self._pending[-1][0] == delta:
            _, terms = self._pending.pop()
            h = {sum(map(operator.mul, t, powers)): v for t, v in terms.items()}
            heap = sorted(h)
            while heap:
                t = heapq.heappop(heap)
                if t not in h or t not in divisors:
                    continue
                mk, div = divisors[t]
                row = [(mk + k, v) for k, v in div.items()]
                for k, _ in row:
                    if k not in h:
                        heapq.heappush(heap, k)
                _cancel(h, h[t], div[t - mk], row)
            if not h:
                continue
            lead = min(h)
            for r in kept:
                if lead in r:
                    _cancel(r, r[lead], h[lead], list(h.items()))
            divisors[lead] = (0, h)
            kept.append(h)
        for h in kept:
            self._kept.append((delta, {tuple(k // p % (delta + 1) for p in powers): v for k, v in sorted(h.items())}))


def _graded_piece_rows(n_vars: int, generators: list[_Generator],
                       d: int) -> tuple[list[dict[int, object]], Iterator[dict[int, object]]]:
    """Sparse rows spanning the degree-d piece of the ideal of
    ``generators``, in the monomials_of_degree column basis: the kept
    monomial multiples m*g_j with deg m + deg g_j = d, and a lazy iterator
    over the skipped ones.  Generators of degree > d contribute nothing;
    when no generator is left, no column is built.

    The row m*g_j is skipped when the leading monomial LM(g_i) of an
    earlier generator (i < j) divides m; LM is the grevlex-largest term,
    the first in monomials_of_degree order.  This is Buchberger's product
    criterion: the trivial syzygy g_i*g_j - g_j*g_i makes the row
    redundant.  Proof that the kept rows span I_d, by induction on j and,
    within g_j, on m in grevlex order: write m = m'*LM(g_i) and
    g_i = c*LM(g_i) + sum of c_s*s over smaller monomials s.  Then

        m'*g_i*g_j = c*(m*g_j) + sum of c_s*(m'*s)*g_j.

    The left side is sum of c_t*(m'*t)*g_i over the terms t of g_j, a
    combination of rows of g_i, which lie in the span of the kept rows
    since i < j.  Each m'*s is smaller than m, since grevlex is a monomial
    order, so (m'*s)*g_j lies in that span too.  As c != 0, so does m*g_j.

    The generators come as ``(degree, terms)`` with primitive integer or
    Gaussian-integer values (see ``_primitive_integers``), which become the
    row values as they are, the form ``exact_rank`` takes.  Scaling a
    generator by a nonzero scalar leaves every row span unchanged, so
    every H_I stays exact.  ``graded_piece_dim`` passes the autoreduced
    generators, which span the same I_d (see ``_Autoreduction``) with fewer
    and sparser rows.  Monomials are packed into the ints
    key(m) = sum of m_i*(d+1)**i: every exponent of a monomial of degree
    <= d is below d+1, so the key is injective there, key(m) + key(t) =
    key(m*t), and keys ascend in monomials_of_degree order, so LM(g) is the
    term of least key.
    """
    if all(degree > d for degree, _ in generators):
        return [], iter(())
    powers = [(d + 1) ** i for i in range(n_vars)]
    keys = [[sum(map(operator.mul, m, powers)) for m in monomials_of_degree(n_vars, k)] for k in range(d + 1)]
    col_index = {k: i for i, k in enumerate(keys[d])}

    def row(tkeys: list[int], values: list[object], mk: int) -> dict[int, object]:
        return {col_index[mk + tk]: v for tk, v in zip(tkeys, values)}

    kept: list[dict[int, object]] = []
    skipped: list[tuple[list[int], list[object], int]] = []
    leads: list[tuple[int, int]] = []
    for degree, terms in generators:
        e = d - degree
        if e < 0:
            continue
        tkeys = [sum(map(operator.mul, t, powers)) for t in terms]
        values = list(terms.values())
        skip = {lk + mk for ldeg, lk in leads if ldeg <= e for mk in keys[e - ldeg]}
        for mk in keys[e]:
            if mk in skip:
                skipped.append((tkeys, values, mk))
            else:
                kept.append(row(tkeys, values, mk))
        leads.append((degree, min(tkeys)))
    return kept, (row(*args) for args in skipped)


def graded_piece_dim(ideal: GradedIdeal, d: int, mode: str = "exact") -> int:
    """dim I_d, the Hilbert function of the ideal at degree d.

    The degree-d piece of an ideal with homogeneous generators g_i is
    spanned by the products m * g_i over monomials m of degree d - deg g_i.
    Its dimension is the rank of the rows of that product matrix that
    Buchberger's product criterion keeps (see ``_graded_piece_rows``); no
    basis computation is needed for a single graded piece.

    Both modes return ``exact_rank`` of the rows kept for the autoreduced
    generators of degree <= d (see ``_Autoreduction``), which span the
    same I_d.  mode="modular-checked" also checks it against a different
    elimination, ``rank_mod_prime``, of the full, unpruned matrix of the
    given generators over the primes of ``RANK_PRIMES``: at least one must
    give the same rank, or the call raises ``ArithmeticError``.  A modular
    rank falls short only when the prime divides every maximal nonzero
    minor of the integer rows, so a mismatch at all three primes points at
    a bug, in the elimination, the autoreduction or the pruning; it is
    never answered.
    """
    if mode not in ("exact", "modular-checked"):
        raise ValueError(f"unknown mode {mode!r}")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    reduction = ideal._autoreduction
    kept, _ = _graded_piece_rows(ideal.n_vars, reduction.generators(d), d)
    rank = exact_rank(kept)
    if mode == "modular-checked":
        kept, skipped = _graded_piece_rows(ideal.n_vars, reduction.given, d)
        rows = kept + list(skipped)
        if all(rank_mod_prime(rows, p) != rank for p in RANK_PRIMES):
            raise ArithmeticError(f"exact rank {rank} of I_{d} matches no modular rank over {RANK_PRIMES}")
    return rank


def hilbert_record(ideal: GradedIdeal, d: int, mode: str = "exact") -> HilbertRecord:
    """H_I(d) together with H_{R/I}(d) = C(n-1+d, d) - H_I(d)."""
    h_ideal = graded_piece_dim(ideal, d, mode=mode)
    total = math.comb(ideal.n_vars - 1 + d, d)
    return HilbertRecord(d, h_ideal, total - h_ideal)


def hilbert_records(ideal: GradedIdeal, d_max: int, mode: str = "exact") -> list[HilbertRecord]:
    """``hilbert_record`` at every degree 0 <= d <= d_max, in one pass.

    The degrees are taken in ascending order until one gives
    H_{R/I}(d) = 0.  Every later degree d' is then filled as
    H_I(d') = C(n-1+d', d') and H_{R/I}(d') = 0, with no rows built and no
    elimination.  Proof: H_{R/I}(d) = 0 means I_d = R_d.  Since I is an
    ideal, I_{d+1} contains z_1*I_d + ... + z_n*I_d = z_1*R_d + ... +
    z_n*R_d = R_{d+1}, as every monomial of degree d+1 is z_i times one of
    degree d; induction on d' does the rest.  The argument uses only that
    I is an ideal, not Macaulay's theorem, so no bound that the caller
    goes on to check is assumed.  It holds over Q and Q(i) alike, and in
    both modes: a filled degree is proven, so neither mode checks it
    modulo a prime.
    """
    records: list[HilbertRecord] = []
    for d in range(d_max + 1):
        if records and records[-1].h_quotient == 0:
            records.append(HilbertRecord(d, math.comb(ideal.n_vars - 1 + d, d), 0))
        else:
            records.append(hilbert_record(ideal, d, mode=mode))
    return records


def macaulay_bound_quotient(h_d: int, d: int) -> int:
    """Largest permitted H_{R/I}(d+1) given H_{R/I}(d) = h_d: apply the
    (1,1) shift to the d-th representation of h_d."""
    return shift_apply(h_d, d, 1, 1)


def macaulay_bound_ideal(h_d: int, n_vars: int) -> int:
    """Smallest permitted H_I(d+1) given H_I(d) = h_d: apply the (0,1)
    shift to the (n-1)-th representation.  Depends on the variable count
    only, never on the degree."""
    return shift_apply(h_d, n_vars - 1, 0, 1)


def macaulay_reverse_bound_ideal(h_d1: int, n_vars: int) -> int:
    """Largest permitted H_I(d) given H_I(d+1) = h_d1: the (0,-1) shift."""
    return shift_apply(h_d1, n_vars - 1, 0, -1)


def verify_macaulay(ideal: GradedIdeal, d_max: int, mode: str = "exact") -> list[BoundChecks]:
    """Check all three growth bounds on H_I / H_{R/I} for 1 <= d < d_max.

    Every row must come back all-True for every homogeneous ideal; a False
    anywhere means the implementation (not the mathematics) is broken.
    """
    if d_max < 2:
        raise ValueError(f"d_max must be >= 2 to check any degree, got {d_max}")
    if ideal.n_vars < 2:
        raise ValueError("growth bounds need at least 2 variables")
    records = hilbert_records(ideal, d_max, mode=mode)[1:]
    checks = []
    for rec, nxt in zip(records, records[1:]):
        forward_ok = nxt.h_ideal >= macaulay_bound_ideal(rec.h_ideal, ideal.n_vars)
        quotient_ok = nxt.h_quotient <= macaulay_bound_quotient(rec.h_quotient, rec.degree)
        reverse_ok = rec.h_ideal <= macaulay_reverse_bound_ideal(nxt.h_ideal, ideal.n_vars)
        checks.append(BoundChecks(rec.degree, forward_ok, quotient_ok, reverse_ok))
    return checks


def bridge_identity_check(n_vars: int, d: int) -> bool:
    """Check, over every split A + B = C(n-1+d, d), that

        A_(n-1)|_0^1  +  B_(d)|_1^1  ==  C(n+d, d+1).

    This is the split identity at m = n-1, s = 1 and is exactly what makes
    the ideal-side and quotient-side growth bounds equivalent: the 1 x 1
    grid of ``_split_failures``.  The ``bridge`` subcommand takes its whole
    grid in one ``_split_failures`` call instead.
    """
    if n_vars < 2 or d < 1:
        raise ValueError("need n_vars >= 2 and d >= 1")
    return not _split_failures((n_vars - 1,), (d,), (1,))


# ---------------------------------------------------------------------------
# Shared text format for ideals
# ---------------------------------------------------------------------------

def format_ideal(ideal: GradedIdeal) -> str:
    """Serialize to the shared JSON document; rationals as "p/q" strings,
    so the round trip is bit exact.  A coefficient that is not an int or a
    Fraction raises ``TypeError``."""
    bad = [c for g in ideal.generators for c in g.terms.values() if type(c) not in _EXACT_TYPES]
    if bad:
        raise TypeError(f"not a rational coefficient: {bad[0]!r}")
    doc = {
        "n_vars": ideal.n_vars,
        "generators": [
            [
                {"coeff": str(coeff), "exponents": mono}
                for mono, coeff in sorted(g.terms.items(), key=lambda kv: kv[0][::-1])
            ]
            for g in ideal.generators
        ],
    }
    return _json_text(doc)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without the standard
    library's pure-Python encoder, which any ``indent`` selects.

    Takes dicts with str keys, lists, tuples, strs, ints, bools and None,
    matched by exact type; anything else, a float or a non-str key
    included, raises ``TypeError``, as ``json.dumps`` does for a Fraction.
    Strings are escaped by the standard library's C escaper.  ``indent``
    is the line break and indentation that precede a closing bracket.
    """
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [_json_str(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_document(text: str, keys: tuple[str, ...], what: str) -> dict:
    """The JSON object ``text`` holds, by :func:`_json_object`; a document
    nested too deeply for the parser raises ``ValueError`` too."""
    try:
        value = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} nests too deeply") from None
    return _json_object(value, keys, what)


def _json_object(value, keys: tuple[str, ...], what: str) -> dict:
    """``value`` if it is a JSON object holding every key, else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_exponents(value, what: str) -> tuple[int, ...]:
    """The JSON array ``value`` as a tuple of exponents.  One pass checks
    that every entry is an int; only when one is not does the per-entry
    ``_json_int`` run, to refuse the first bad entry by its message."""
    value = _json_list(value, what)
    if all(type(e) is int for e in value):
        return tuple(value)
    return tuple(_json_int(e, "exponent") for e in value)


def _json_rational(value, what: str) -> int | Fraction:
    """A "p/q" string or a JSON integer as an exact rational: the value
    ``Fraction(value)`` gives, as an int when it is integral, since every
    reader of scalars takes ints as they are.  JSON floats are refused:
    their binary value is rarely the decimal that was meant.

    The plain forms "n" and "p/q" (ASCII digits, an optional leading "-"
    on p, q nonzero) are read with ``int``; every other form goes to
    ``Fraction``, which accepts it or raises as it always has."""
    if type(value) is str:
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit():
            if not slash:
                return int(num)
            if den.isascii() and den.isdigit() and den.strip("0"):
                value = Fraction(int(num), int(den))
                return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f'{what} must be a "p/q" string or an integer, got {value!r}')
    try:
        value = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator: {value!r}") from None
    return value.numerator if value.denominator == 1 else value


def parse_ideal(text: str) -> GradedIdeal:
    """Parse the shared ideal document.

    Each generator is a list of terms {"coeff": "p/q", "exponents": [..]}.
    A nonzero constant generator is rejected: it generates the unit ideal
    and every Hilbert value would be the full space.  A zero generator,
    of any degree, is left to ``GradedIdeal``.  Every schema fault raises
    ``ValueError``.
    """
    doc = _json_document(text, ("n_vars", "generators"), "ideal document")
    n_vars = _json_int(doc["n_vars"], "n_vars")
    gens = []
    for gen_terms in _json_list(doc["generators"], "generators"):
        terms: dict[Monomial, int | Fraction] = {}
        degree = None
        for term in _json_list(gen_terms, "generator"):
            term = _json_object(term, ("coeff", "exponents"), "term")
            mono = _json_exponents(term["exponents"], "exponents")
            coeff = _json_rational(term["coeff"], "coeff")
            degree = monomial_degree(mono) if degree is None else degree
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        if degree is None:
            raise ValueError("generator with no terms")
        poly = HomogPoly(n_vars, degree, terms)
        if poly.degree == 0 and not poly.is_zero():
            raise ValueError("degree-0 generator defines the unit ideal; not supported")
        gens.append(poly)
    return GradedIdeal(n_vars, tuple(gens))
