"""Hermitian bihomogeneous forms as exact coefficient matrices.

A real-valued polynomial M(z, zbar), homogeneous of degree d in z and in
zbar, is stored as the Hermitian matrix of its coefficients in the fixed
degree-d monomial basis: ``matrix[i][j]`` is the coefficient of
``z^basis[i] * conj(z)^basis[j]``.  Entries are exact Gaussian rationals.
Rank and signature come from integer elimination on the matrix scaled to
integers (a non-real matrix through its real symmetric embedding);
square decompositions, multiplication by signed norms and the
signature/rank inequalities for products work on the Gaussian-rational
entries.  No floating point appears anywhere.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .binom import shift_apply
from .poly import (
    GradedIdeal,
    HomogPoly,
    Monomial,
    _json_int,
    _json_list,
    _json_object,
    _json_rational,
    exact_rank,
    graded_piece_dim,
    monomials_of_degree,
)


def _exact_div_scalar(x, y):
    """x / y staying exact: never the float path of int / int."""
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        return x / y
    return Fraction(x, y)


class GaussianRational:
    """An exact complex number with rational real and imaginary parts.

    Parts are stored as int when they arrive as int (the common case in
    elimination, where Fraction normalization would dominate the runtime)
    and as Fraction otherwise; all arithmetic is exact either way.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        self.im = im if isinstance(im, (int, Fraction)) else Fraction(im)

    @classmethod
    def of(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(value)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        conj = other.conjugate()
        return GaussianRational(
            _exact_div_scalar(self.re * conj.re - self.im * conj.im, n),
            _exact_div_scalar(self.re * conj.im + self.im * conj.re, n),
        )

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _lift(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


class SignaturePair(NamedTuple):
    """Counts of positive and negative squares; the rank is their sum."""

    p: int
    q: int

    @property
    def rank(self) -> int:
        return self.p + self.q


class SignedNorm(NamedTuple):
    """The Hermitian form |z_1|^2+...+|z_s|^2 - |z_{s+1}|^2-...-|z_{s+t}|^2.

    s + t must equal the ambient variable count wherever the norm is used.
    """

    s: int
    t: int


class SquareTerm(NamedTuple):
    """One summand ``weight * |poly(z)|^2`` of a square decomposition.

    The weight is a nonzero real rational.  It is +-1 whenever its absolute
    value is a perfect rational square (the square root is folded into the
    polynomial); a general exact decomposition cannot always reach unit
    weights, e.g. ``3|z1|^2`` is not ``|c z1|^2`` for any Gaussian-rational
    c because 3 is not a sum of two rational squares.
    """

    weight: Fraction
    poly: HomogPoly


class HermitianBiform:
    """Hermitian coefficient matrix of a bihomogeneous form of bidegree (d, d).

    ``matrix[i][j]`` is the coefficient of z^basis[i] * conj(z)^basis[j],
    with the basis fixed by :func:`macaulay.poly.monomials_of_degree`.
    """

    __slots__ = ("n_vars", "half_degree", "matrix")

    def __init__(self, n_vars: int, half_degree: int, matrix: Sequence[Sequence]):
        basis = monomials_of_degree(n_vars, half_degree)
        dim = len(basis)
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError(f"matrix must be {dim}x{dim} for n={n_vars}, d={half_degree}")
        coerced = tuple(tuple(GaussianRational.of(v) for v in row) for row in matrix)
        for i in range(dim):
            for j in range(i, dim):
                if coerced[i][j] != coerced[j][i].conjugate():
                    raise ValueError(
                        f"matrix is not Hermitian at ({i},{j}): "
                        f"{coerced[i][j]} vs conj({coerced[j][i]})"
                    )
        self.n_vars = n_vars
        self.half_degree = half_degree
        self.matrix = coerced

    @property
    def basis(self) -> tuple[Monomial, ...]:
        return monomials_of_degree(self.n_vars, self.half_degree)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianBiform):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.half_degree == other.half_degree
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        return f"HermitianBiform(n_vars={self.n_vars}, d={self.half_degree}, dim={self.dim})"


def zero_biform(n_vars: int, d: int) -> HermitianBiform:
    dim = len(monomials_of_degree(n_vars, d))
    return HermitianBiform(n_vars, d, [[0] * dim for _ in range(dim)])


def biform_from_terms(
    n_vars: int, d: int, terms: Iterable[tuple[Monomial, Monomial, object]]
) -> HermitianBiform:
    """Build a biform from (alpha, beta, coeff) triples meaning
    coeff * z^alpha * conj(z)^beta.

    Repeated pairs accumulate.  Unlisted pairs are zero.  Raises if any
    exponent tuple has the wrong degree or if the assembled matrix fails
    to be Hermitian.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(n_vars, d))}
    dim = len(index)
    rows = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for alpha, beta, coeff in terms:
        alpha, beta = tuple(alpha), tuple(beta)
        if alpha not in index or beta not in index:
            raise ValueError(f"term ({alpha},{beta}) is not of bidegree ({d},{d}) in {n_vars} variables")
        rows[index[alpha]][index[beta]] += GaussianRational.of(coeff)
    return HermitianBiform(n_vars, d, rows)


def biform_terms(form: HermitianBiform) -> list[tuple[Monomial, Monomial, GaussianRational]]:
    """The nonzero (alpha, beta, coeff) triples of a biform."""
    basis = form.basis
    out = []
    for i, row in enumerate(form.matrix):
        for j, v in enumerate(row):
            if v:
                out.append((basis[i], basis[j], v))
    return out


def recompose_squares(
    n_vars: int, d: int, weighted: Iterable[tuple[object, HomogPoly]]
) -> HermitianBiform:
    """Sum of ``weight * |poly|^2`` as a biform; the exact inverse of
    :func:`decompose`."""
    index = {m: i for i, m in enumerate(monomials_of_degree(n_vars, d))}
    dim = len(index)
    rows = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for weight, p in weighted:
        if p.n_vars != n_vars or p.degree != d:
            raise ValueError("square term has wrong variables or degree")
        vec = [(index[m], GaussianRational.of(c)) for m, c in p.terms.items()]
        for i, ci in vec:
            for j, cj in vec:
                rows[i][j] += weight * ci * cj.conjugate()
    return HermitianBiform(n_vars, d, rows)


def biform_from_squares(
    n_vars: int,
    d: int,
    plus: Sequence[HomogPoly],
    minus: Sequence[HomogPoly] = (),
) -> HermitianBiform:
    """The biform sum |p_1|^2 + ... + |p_k|^2 - |q_1|^2 - ... - |q_m|^2."""
    weighted = [(Fraction(1), p) for p in plus] + [(Fraction(-1), q) for q in minus]
    return recompose_squares(n_vars, d, weighted)


def biform_rank(form: HermitianBiform) -> int:
    """Exact rank of the coefficient matrix, by ``exact_rank`` over Q(i)."""
    rows = []
    for row in form.matrix:
        rows.append({j: v for j, v in enumerate(row) if v})
    return exact_rank(rows)


def _peel_squares(form: HermitianBiform) -> list[tuple[Fraction, dict[int, GaussianRational]]]:
    """Split the matrix into weighted rank-one squares by exact congruence
    elimination over the Gaussian rationals; this serves :func:`decompose`,
    which needs the square vectors (:func:`biform_signature` counts signs
    on integers instead).

    While a nonzero diagonal entry d exists, peel the square
    ``d * |column/d|^2`` and pass to the Schur complement.  When the
    active diagonal is entirely zero but some off-diagonal entry a != 0
    remains, the 2x2 block [[0, a], [conj(a), 0]] splits exactly into one
    positive and one negative unit square, and the corresponding rank-two
    piece is removed.  Either step is a congruence, so by Sylvester's law
    the sign counts are the signature regardless of pivot order.  The
    returned coefficient vectors are linearly independent and live in the
    original monomial basis.
    """
    dim = form.dim
    work = [[form.matrix[i][j] for j in range(dim)] for i in range(dim)]
    active = list(range(dim))
    peeled: list[tuple[Fraction, dict[int, GaussianRational]]] = []
    one = GaussianRational(1)
    while active:
        pivot = next((i for i in active if work[i][i]), None)
        if pivot is not None:
            d_g = work[pivot][pivot]
            weight = d_g.re  # diagonal of a Hermitian matrix is real
            vec = {r: work[r][pivot] / d_g for r in active if work[r][pivot]}
            peeled.append((weight, vec))
            others = [r for r in active if r != pivot]
            col = {r: work[r][pivot] for r in others}
            prow = work[pivot]
            for r in others:
                fr = col.get(r)
                if not fr:
                    continue
                fr = fr / d_g
                wr = work[r]
                for s in others:
                    if prow[s]:
                        wr[s] = wr[s] - fr * prow[s]
            active.remove(pivot)
            continue
        pair = None
        for i in active:
            wi = work[i]
            for j in active:
                if j > i and wi[j]:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        a = work[i][j]
        inv_2a = one / (a + a)
        col_i = {r: work[r][i] for r in active}
        col_j = {r: work[r][j] for r in active}
        c_plus = {r: col_i[r] + col_j[r] * inv_2a for r in active}
        c_plus = {r: v for r, v in c_plus.items() if v}
        c_minus = {r: col_i[r] - col_j[r] * inv_2a for r in active}
        c_minus = {r: v for r, v in c_minus.items() if v}
        peeled.append((Fraction(1), c_plus))
        peeled.append((Fraction(-1), c_minus))
        row_i = dict(enumerate(work[i]))
        row_j = dict(enumerate(work[j]))
        inv_a = one / a
        inv_abar = inv_a.conjugate()
        for r in active:
            wr = work[r]
            ci = col_i[r]
            cj = col_j[r]
            if not ci and not cj:
                continue
            for s in active:
                wr[s] = wr[s] - ci * inv_abar * row_j[s] - cj * inv_a * row_i[s]
        active.remove(i)
        active.remove(j)
    return peeled


def _congruence_signature(work: list[list[int]]) -> tuple[int, int]:
    """Signature (p, q) of a real symmetric integer matrix; ``work`` is
    consumed.

    Each step takes the nonzero active diagonal entry d of smallest |d|,
    counts its sign, and replaces the rest of the block by
    ``|d|*W[r][s] - sgn(d)*W[r][k]*W[k][s]``, which is |d| times the Schur
    complement, divided by its positive content.  If the active diagonal
    is zero but some W[i][j] is not, the congruence row_i += row_j,
    col_i += col_j makes W[i][i] = 2*W[i][j] and the step pivots there.
    Zero rows (and with them the equal columns) are dropped.  Each step is
    a congruence or a positive scaling, so by Sylvester's law the counted
    signs are the signature whatever the pivot order.  The integers stay
    small: the block after a step is divisible by every earlier pivot's
    |d|, as in Bareiss elimination, and the content division removes it.
    """
    p = q = 0
    while True:
        keep = [t for t, row in enumerate(work) if any(row)]
        if len(keep) < len(work):
            work = [[work[r][s] for s in keep] for r in keep]
        if not work:
            return p, q
        m = len(work)
        k = min((t for t in range(m) if work[t][t]), key=lambda t: abs(work[t][t]), default=None)
        if k is None:
            k, j = next((r, s) for r in range(m) for s in range(r + 1, m) if work[r][s])
            wk, wj = work[k], work[j]
            for s in range(m):
                wk[s] += wj[s]
            for row in work:
                row[k] += row[j]
        prow = work[k]
        d = prow[k]
        if d > 0:
            p += 1
        else:
            q += 1
            prow = [-v for v in prow]
        a = abs(d)
        rest = [t for t in range(m) if t != k]
        block = []
        for r in rest:
            row = work[r]
            f = row[k]
            if f:
                block.append([a * row[s] - f * prow[s] for s in rest])
            elif a != 1:
                block.append([a * row[s] for s in rest])
            else:
                block.append([row[s] for s in rest])
        g = math.gcd(*[math.gcd(*row) for row in block])
        if g > 1:
            block = [[v // g for v in row] for row in block]
        work = block


def biform_signature(form: HermitianBiform) -> SignaturePair:
    """Signature (p, q) of the coefficient matrix, exactly.

    The matrix M = A + iB is scaled by the lcm of the denominators of all
    its real and imaginary parts, a positive integer.  If B != 0, the
    signature is taken of the real symmetric embedding [[A, -B], [B, A]]
    (column c of the two blocks interleaved as 2c and 2c + 1), which has
    every eigenvalue of M twice, so its signature is (2p, 2q); an odd
    count there raises ``ArithmeticError`` instead of being halved.  The
    signature itself comes from integer congruence elimination
    (:func:`_congruence_signature`): by Sylvester's law of inertia,
    congruences and positive scalings keep the counts exact.
    """
    matrix = form.matrix
    den = math.lcm(*(v.denominator for row in matrix for z in row for v in (z.re, z.im)))
    gaussian = any(z.im for row in matrix for z in row)

    def part(v) -> int:
        return v.numerator * (den // v.denominator)

    if not gaussian:
        work = [[part(z.re) for z in row] for row in matrix]
    else:
        work = []
        for row in matrix:
            top, bottom = [], []
            for z in row:
                re, im = part(z.re), part(z.im)
                top += (re, -im)
                bottom += (im, re)
            work += (top, bottom)
    p, q = _congruence_signature(work)
    if not gaussian:
        return SignaturePair(p, q)
    if p % 2 or q % 2:
        raise ArithmeticError(f"real embedding has odd signature ({p}, {q})")
    return SignaturePair(p // 2, q // 2)


def decompose(form: HermitianBiform) -> list[SquareTerm]:
    """Write the form as a weighted sum of squares of independent
    holomorphic polynomials: M = sum_i weight_i * |m_i(z)|^2, exactly.

    There are p + q terms with p positive and q negative weights.  When a
    weight's absolute value is a perfect rational square it is folded into
    the polynomial, leaving weight +-1 (see :class:`SquareTerm` for why
    unit weights are not always reachable).  Recomposition with
    :func:`recompose_squares` reproduces the matrix entry for entry.
    """
    basis = form.basis
    out = []
    for weight, vec in _peel_squares(form):
        weight = Fraction(weight)
        root = _perfect_square_root(abs(weight))
        if root != 1 and root is not None:
            vec = {r: v * root for r, v in vec.items()}
        if root is not None:
            weight = Fraction(1) if weight > 0 else Fraction(-1)
        terms = {basis[r]: v for r, v in vec.items()}
        out.append(SquareTerm(weight, HomogPoly(form.n_vars, form.half_degree, terms)))
    return out


def _perfect_square_root(value: Fraction) -> Optional[Fraction]:
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def multiply_signed_norm(form: HermitianBiform, norm: SignedNorm | tuple[int, int]) -> HermitianBiform:
    """Multiply by the signed norm of signature (s, t): the bidegree goes
    up by one and the product entry at (A, B) is the signed sum of the
    entries at (A - e_j, B - e_j)."""
    s, t = norm
    if s < 0 or t < 0 or s + t != form.n_vars:
        raise ValueError(f"signed norm ({s},{t}) does not match {form.n_vars} variables")
    n = form.n_vars
    d = form.half_degree
    src_index = {m: i for i, m in enumerate(monomials_of_degree(n, d))}
    dst_basis = monomials_of_degree(n, d + 1)
    dim = len(dst_basis)
    rows = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for ai, alpha in enumerate(dst_basis):
        for bi, beta in enumerate(dst_basis):
            acc = GaussianRational()
            for j in range(n):
                if alpha[j] == 0 or beta[j] == 0:
                    continue
                am = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                bm = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
                v = form.matrix[src_index[am]][src_index[bm]]
                if v:
                    acc = acc + v if j < s else acc - v
            rows[ai][bi] = acc
    return HermitianBiform(n, d + 1, rows)


def multiply_norm_power(form: HermitianBiform, power: int) -> HermitianBiform:
    """Multiply by the Euclidean norm squared, ``power`` times."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    out = form
    for _ in range(power):
        out = multiply_signed_norm(out, SignedNorm(form.n_vars, 0))
    return out


def divide_norm_power(form: HermitianBiform, power: int) -> Optional[HermitianBiform]:
    """Exact quotient by the Euclidean norm squared to the given power, or
    None when the form is not divisible.

    One division step solves F[A][B] = sum_j M[A-e_j][B-e_j] for M by
    recursion on the first exponent of A, then certifies the candidate by
    multiplying back.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    out = form
    for _ in range(power):
        out = _divide_norm_once(out)
        if out is None:
            return None
    return out


def _divide_norm_once(form: HermitianBiform) -> Optional[HermitianBiform]:
    if form.half_degree < 1:
        return None
    n = form.n_vars
    d = form.half_degree - 1
    src_index = {m: i for i, m in enumerate(form.basis)}
    dst_basis = monomials_of_degree(n, d)
    known: dict[tuple[Monomial, Monomial], GaussianRational] = {}

    def lookup(a: Monomial, b: Monomial) -> GaussianRational:
        if min(a) < 0 or min(b) < 0:
            return GaussianRational()
        return known[(a, b)]

    for alpha in sorted(dst_basis, key=lambda m: -m[0]):
        a_up = (alpha[0] + 1,) + alpha[1:]
        for beta in dst_basis:
            b_up = (beta[0] + 1,) + beta[1:]
            acc = form.matrix[src_index[a_up]][src_index[b_up]]
            for j in range(1, n):
                am = a_up[:j] + (a_up[j] - 1,) + a_up[j + 1:]
                bm = b_up[:j] + (b_up[j] - 1,) + b_up[j + 1:]
                acc = acc - lookup(am, bm)
            known[(alpha, beta)] = acc
    dst_index = {m: i for i, m in enumerate(dst_basis)}
    dim = len(dst_basis)
    rows = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for (alpha, beta), v in known.items():
        rows[dst_index[alpha]][dst_index[beta]] = v
    try:
        candidate = HermitianBiform(n, d, rows)
    except ValueError:
        return None
    if multiply_signed_norm(candidate, SignedNorm(n, 0)) != form:
        return None
    return candidate


# ---------------------------------------------------------------------------
# Rank and signature bounds for products with signed norms
# ---------------------------------------------------------------------------

def product_rank_interval(r: int, n: int) -> tuple[int, int]:
    """Bounds on the rank R of M * (any signed norm) when M has rank r in
    n variables:  2 * r_(n-1)|_0^1 - r*n  <=  R  <=  r*n."""
    if n < 2:
        raise ValueError("need at least 2 variables")
    if r < 1:
        raise ValueError("rank bounds need rank >= 1; a zero form has no interval")
    return 2 * shift_apply(r, n - 1, 0, 1) - r * n, r * n


def product_rank_interval_closed_form(r: int, n: int) -> tuple[int, int]:
    """Closed form (r*n - r*(r-1), r*n) of the product rank interval,
    valid for r <= n - 1; must agree with :func:`product_rank_interval`."""
    if n < 2:
        raise ValueError("need at least 2 variables")
    if r < 1:
        raise ValueError("rank bounds need rank >= 1")
    if r > n - 1:
        raise ValueError(f"closed form requires r <= n - 1, got r={r}, n={n}")
    return r * n - r * (r - 1), r * n


def sos_min_positive_part(r: int, n: int, l: int) -> Fraction:
    """Lower bound on p when a rank-r form times the l-th norm power is a
    sum of squared norms:  p >= r_(n-1)|_0^l / C(n-1+l, l)."""
    if n < 2:
        raise ValueError("need at least 2 variables")
    if r < 0 or l < 1:
        raise ValueError("need r >= 0 and l >= 1")
    return Fraction(shift_apply(r, n - 1, 0, l), math.comb(n - 1 + l, l))


def sos_max_negative_part(p: int, n: int, l: int, alternate: bool = False) -> int:
    """Upper bound on q for a signature-(p, q) form whose l-th norm-power
    product is a sum of squared norms:

        q <= p * C(n-1+l, l) - p - p_(n-1)|_{-1}^{l-1}.

    Two subscript conventions for the final shift circulate; the default
    uses (s, t) = (-1, l-1), the alternate uses (s, t) = (-l, l-1).  They
    agree at l = 1.
    """
    if n < 2:
        raise ValueError("need at least 2 variables")
    if p < 1 or l < 1:
        raise ValueError("need p >= 1 and l >= 1")
    s = -l if alternate else -1
    return p * math.comb(n - 1 + l, l) - p - shift_apply(p, n - 1, s, l - 1)


def sos_rank_interval(p: int, q: int, n: int, l: int) -> tuple[int, int]:
    """Bounds on the rank R of the l-th norm-power product of a
    signature-(p, q) form, assuming that product is a sum of squared
    norms:  (p+q)_(n-1)|_0^l - q*C(n-1+l, l)  <=  R  <=  p*C(n-1+l, l)."""
    if n < 2:
        raise ValueError("need at least 2 variables")
    if p < 0 or q < 0 or p + q < 1 or l < 1:
        raise ValueError("need p, q >= 0, p + q >= 1, l >= 1")
    c = math.comb(n - 1 + l, l)
    return shift_apply(p + q, n - 1, 0, l) - q * c, p * c


def is_sum_of_squares(form: HermitianBiform) -> bool:
    """True iff the form is a sum of squared norms of holomorphic
    polynomials, i.e. its matrix is positive semidefinite (q == 0)."""
    return biform_signature(form).q == 0


def find_min_sos_exponent(form: HermitianBiform, l_max: int) -> Optional[int]:
    """Smallest 1 <= l <= l_max such that form * ||z||^(2l) is a sum of
    squared norms, or None if no such l exists in range.  Once a power
    works, every larger power works too, since multiplying a sum of
    squares by the norm keeps it a sum of squares."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    product = form
    for l in range(1, l_max + 1):
        product = multiply_signed_norm(product, SignedNorm(form.n_vars, 0))
        if is_sum_of_squares(product):
            return l
    return None


class ProductRankReport(NamedTuple):
    rank_product: int
    low: int
    high: int
    ok: bool


def verify_product_rank_bounds(form: HermitianBiform, norm: SignedNorm | tuple[int, int]) -> ProductRankReport:
    """Rank of form * signed norm, with its predicted interval.

    ``ok`` must come back True for every nonzero form; False would mean a
    bug in the rank or shift machinery.  Raises on the zero form, whose
    interval is undefined.
    """
    r = biform_rank(form)
    if r == 0:
        raise ValueError("zero form: the product rank interval needs rank >= 1")
    rank_product = biform_rank(multiply_signed_norm(form, norm))
    low, high = product_rank_interval(r, form.n_vars)
    return ProductRankReport(rank_product, low, high, low <= rank_product <= high)


def verify_ideal_containment(
    m_plus: Sequence[HomogPoly],
    m_minus: Sequence[HomogPoly],
    h: Sequence[HomogPoly],
    l: int,
) -> bool:
    """Check the ideal containments that must hold whenever

        (sum |m_plus_i|^2 - sum |m_minus_j|^2) * ||z||^(2l)  ==  sum |h_k|^2.

    The identity itself is verified first by recomposing coefficient
    matrices; a mismatch raises, because the caller's witness is invalid.
    Then, in degree d + l, the pieces generated by m_minus and by h must
    both sit inside the piece generated by m_plus (so in particular the
    ideals generated by all m's and by m_plus agree there).  Dimensions
    are compared exactly via graded pieces.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    everything = list(m_plus) + list(m_minus)
    if not everything:
        raise ValueError("need at least one polynomial on the m side")
    n_vars = everything[0].n_vars
    d = everything[0].degree
    for p in everything:
        if p.n_vars != n_vars or p.degree != d:
            raise ValueError("all m polynomials must share variables and degree")
    for w in h:
        if w.n_vars != n_vars or w.degree != d + l:
            raise ValueError(f"witness polynomials must have degree {d + l}")

    base = biform_from_squares(n_vars, d, m_plus, m_minus)
    if multiply_norm_power(base, l) != biform_from_squares(n_vars, d + l, h):
        raise ValueError("witness identity fails: the recomposed matrices differ")

    degree = d + l

    def dim_of(gens: Sequence[HomogPoly]) -> int:
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return 0
        return graded_piece_dim(GradedIdeal(n_vars, tuple(gens)), degree)

    dim_plus = dim_of(m_plus)
    dim_minus = dim_of(m_minus)
    dim_union_minus = dim_of(list(m_plus) + list(m_minus))
    dim_union_h = dim_of(list(m_plus) + list(h))
    return dim_minus <= dim_plus and dim_union_minus == dim_plus and dim_union_h == dim_plus


# ---------------------------------------------------------------------------
# Shared text format for biforms
# ---------------------------------------------------------------------------

def format_biform(form: HermitianBiform) -> str:
    """Serialize to the shared JSON document.  Only the upper triangle is
    written; parsing restores the rest by Hermitian completion.  All
    rationals are "p/q" strings, so the round trip is bit exact."""
    basis = form.basis
    terms = []
    for i in range(form.dim):
        for j in range(i, form.dim):
            v = form.matrix[i][j]
            if v:
                terms.append(
                    {
                        "alpha": list(basis[i]),
                        "beta": list(basis[j]),
                        "coeff": {"re": str(v.re), "im": str(v.im)},
                    }
                )
    doc = {"n_vars": form.n_vars, "d": form.half_degree, "terms": terms}
    return json.dumps(doc, indent=2)


def parse_biform(text: str) -> HermitianBiform:
    """Parse the shared biform document.

    Each term is {"alpha": [...], "beta": [...], "coeff": {"re": "p/q",
    "im": "p/q"}} and contributes coeff * z^alpha * conj(z)^beta.  When
    only one of a conjugate pair of entries is present, the other is
    filled in by Hermitian completion; when both are present they must
    actually be conjugates, or the assembled matrix is rejected.  Every
    schema fault raises ``ValueError``.
    """
    doc = _json_object(json.loads(text), ("n_vars", "d", "terms"), "biform document")
    n_vars = _json_int(doc["n_vars"], "n_vars")
    d = _json_int(doc["d"], "d")
    entries: dict[tuple[Monomial, Monomial], GaussianRational] = {}
    for term in _json_list(doc["terms"], "terms"):
        term = _json_object(term, ("alpha", "beta", "coeff"), "term")
        alpha = tuple(_json_int(e, "exponent") for e in _json_list(term["alpha"], "alpha"))
        beta = tuple(_json_int(e, "exponent") for e in _json_list(term["beta"], "beta"))
        coeff = _json_object(term["coeff"], ("re", "im"), "coeff")
        coeff = GaussianRational(_json_rational(coeff["re"], "re"), _json_rational(coeff["im"], "im"))
        key = (alpha, beta)
        entries[key] = entries.get(key, GaussianRational()) + coeff
    completed = dict(entries)
    for (alpha, beta), coeff in entries.items():
        if alpha != beta and (beta, alpha) not in entries:
            completed[(beta, alpha)] = coeff.conjugate()
    return biform_from_terms(n_vars, d, [(a, b, c) for (a, b), c in completed.items()])
