"""Hermitian bihomogeneous forms as exact coefficient matrices.

A real-valued polynomial M(z, zbar), homogeneous of degree d in z and in
zbar, is stored as the Hermitian matrix of its coefficients in the fixed
degree-d monomial basis: ``matrix[i][j]`` is the coefficient of
``z^basis[i] * conj(z)^basis[j]``.  The matrix is held once, as integers:
(re + i*im) / den with int matrices ``re`` and ``im`` and the least
positive common denominator ``den``.  The rank comes from row
elimination on those integer parts: ``exact_rank`` for a real matrix,
and for a non-real one a rank modulo a prime where i has a square root,
which proves a full rank, else ``exact_rank``'s fraction-free elimination
over the Gaussian integers.  The signature and the square
decomposition come from one fraction-free congruence kernel over the
Gaussian integers on ``re`` and ``im``; the rank is kept on the other
kernel so that rank == p + q checks one against the other, as
``hermitian_report`` does before it reports.  Multiplication by a
signed norm is an integer-linear map applied to ``re`` and ``im`` alike,
over the same ``den``.  No floating point appears anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .binom import shift_apply
from .poly import (
    RANK_PRIMES,
    GradedIdeal,
    HomogPoly,
    Monomial,
    _EXACT_TYPES,
    _exact_parts,
    _json_document,
    _json_exponents,
    _json_int,
    _json_list,
    _json_object,
    _json_rational,
    _json_text,
    exact_rank,
    graded_piece_dim,
    monomials_of_degree,
    rank_mod_prime,
)


def _lifted(op):
    """``op`` with its operand lifted through :meth:`GaussianRational.of`:
    an operand the constructor refuses gives ``NotImplemented``."""
    def lifted(self, other):
        try:
            other = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return op(self, other)
    return lifted


class GaussianRational:
    """An exact complex number with rational real and imaginary parts.

    Parts are ints or Fractions, stored as they arrive; anything else, a
    bool included, raises ``TypeError``.  An operand of ``==`` or of the
    arithmetic is lifted through the constructor, so it takes the same
    values.  No elimination computes in this class: ``poly._exact_parts``
    reads only the ``re`` and ``im`` parts of a scalar, and the kernels run
    on the integers it gives.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not (type(re) in _EXACT_TYPES and type(im) in _EXACT_TYPES):
            raise TypeError(f"not an exact scalar: {(re, im)!r}")
        self.re, self.im = re, im

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

    @_lifted
    def __eq__(self, other) -> bool:
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # a real value equals its real part, so it hashes as that part does
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    @_lifted
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_lifted
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    __rsub__ = _lifted(lambda self, other: other - self)

    @_lifted
    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, other):
        n = other.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        conj = other.conjugate()
        return GaussianRational(
            Fraction(self.re * conj.re - self.im * conj.im, n),
            Fraction(self.re * conj.im + self.im * conj.re, n),
        )

    __rtruediv__ = _lifted(lambda self, other: other / self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


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

    Storage is ``den``, ``re`` and ``im``: the matrix is (re + i*im) / den,
    ``re`` and ``im`` are tuples of int rows, ``im`` is None for a real
    form, and ``den`` is the least positive common denominator of all the
    real and imaginary parts.  So equal forms store equal ints, and ``==``
    compares them.  ``matrix`` builds the Gaussian-rational rows from them
    on each read.
    """

    __slots__ = ("n_vars", "half_degree", "den", "re", "im")

    def __init__(self, n_vars: int, half_degree: int, matrix: Sequence[Sequence]):
        basis = monomials_of_degree(n_vars, half_degree)
        dim = len(basis)
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError(f"matrix must be {dim}x{dim} for n={n_vars}, d={half_degree}")
        re, im, den = _exact_parts(v for row in matrix for v in row)
        re, im = ([part[k:k + dim] for k in range(0, dim * dim, dim)] for part in (re, im))
        _require_hermitian(den, re, im)
        self._store(n_vars, half_degree, den, re, im)

    @classmethod
    def _from_ints(cls, n_vars: int, half_degree: int, den: int, re, im) -> "HermitianBiform":
        """The form (re + i*im) / den from int parts known to be Hermitian
        and in least terms, den > 0 and gcd(den, re, im) = 1, stored as given."""
        form = cls.__new__(cls)
        form._store(n_vars, half_degree, den, re, im)
        return form

    def _store(self, n_vars: int, half_degree: int, den: int, re, im) -> None:
        self.n_vars = n_vars
        self.half_degree = half_degree
        self.den = den
        self.re = tuple(map(tuple, re))
        self.im = tuple(map(tuple, im)) if im and any(map(any, im)) else None

    @property
    def matrix(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The Gaussian-rational entries, built from (den, re, im) on each read."""
        im = self.im or ((0,) * self.dim,) * self.dim
        part = int if self.den == 1 else lambda v: Fraction(v, self.den)
        return tuple(tuple(GaussianRational(part(a), part(b)) for a, b in zip(ra, ia)) for ra, ia in zip(self.re, im))

    @property
    def basis(self) -> tuple[Monomial, ...]:
        return monomials_of_degree(self.n_vars, self.half_degree)

    @property
    def dim(self) -> int:
        return len(self.re)

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianBiform):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return f"HermitianBiform(n_vars={self.n_vars}, d={self.half_degree}, dim={self.dim})"


def _require_hermitian(den: int, re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]) -> None:
    """Raise ``ValueError`` naming the first cell (i, j), i <= j, where the
    matrix (re + i*im) / den is not its own conjugate transpose."""
    for i in range(len(re)):
        for j in range(i, len(re)):
            if re[i][j] != re[j][i] or im[i][j] != -im[j][i]:
                a, b = (GaussianRational(Fraction(re[r][c], den), Fraction(im[r][c], den)) for r, c in ((i, j), (j, i)))
                raise ValueError(f"matrix is not Hermitian at ({i},{j}): {a} vs conj({b})")


def zero_biform(n_vars: int, d: int) -> HermitianBiform:
    return biform_from_terms(n_vars, d, ())


def biform_from_terms(
    n_vars: int, d: int, terms: Iterable[tuple[Monomial, Monomial, object]]
) -> HermitianBiform:
    """Build a biform from (alpha, beta, coeff) triples meaning
    coeff * z^alpha * conj(z)^beta.

    Coefficients are any exact scalars the constructor takes.  A pair
    listed once goes into the matrix as it is; a repeated pair is summed,
    through the same reader, as each repeat is inserted.  Unlisted pairs
    are zero.  Raises if any exponent tuple has the wrong degree or if the
    assembled matrix fails to be Hermitian.  The constructor converts the
    matrix to ints once and checks the symmetry on them.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(n_vars, d))}
    matrix = [[0] * len(index) for _ in index]
    seen = set()
    for alpha, beta, coeff in terms:
        alpha, beta = tuple(alpha), tuple(beta)
        if alpha not in index or beta not in index:
            raise ValueError(f"term ({alpha},{beta}) is not of bidegree ({d},{d}) in {n_vars} variables")
        r, c = index[alpha], index[beta]
        if (r, c) in seen:
            re, im, den = _exact_parts((matrix[r][c], coeff))
            coeff = Fraction(sum(re), den), Fraction(sum(im), den)
        seen.add((r, c))
        matrix[r][c] = coeff
    return HermitianBiform(n_vars, d, matrix)


def recompose_squares(
    n_vars: int, d: int, weighted: Iterable[tuple[object, HomogPoly]]
) -> HermitianBiform:
    """Sum of ``weight * |poly|^2`` as a biform, on ints; the exact inverse
    of :func:`decompose`.

    Write each polynomial as P / dp, P a Gaussian-integer vector over the
    lcm dp of its denominators, and each weight as (wr + i*wi) / wd.  Then
    weight * p_alpha * conj(p_beta) = f * P_alpha * conj(P_beta) / D with
    D = lcm of all wd * dp^2 and f = (wr + i*wi) * (D / (wd * dp^2)), so the
    sum is (re + i*im) / D with int matrices and no rational per pair.  A
    real weight adds f * P P^H, which is Hermitian.  A non-real one need
    not, so the sum gets the constructor's int check
    (:func:`_require_hermitian`): non-real weights that cancel pass, others
    raise ``ValueError`` naming the cell.  Raises if a polynomial, zero or
    not, has the wrong variable count or degree.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(n_vars, d))}
    squares = []
    for weight, p in weighted:
        if p.n_vars != n_vars or p.degree != d:
            raise ValueError("square term has wrong variables or degree")
        (wr,), (wi,), wd = _exact_parts([weight])
        pr, pi, dp = _exact_parts(p.terms.values())
        squares.append((wr, wi, wd * dp * dp, [index[m] for m in p.terms], pr, pi))
    den = math.lcm(*(sq[2] for sq in squares))
    re = [[0] * len(index) for _ in index]
    im = [[0] * len(index) for _ in index]
    for wr, wi, sd, cols, pr, pi in squares:
        fr, fi = wr * (den // sd), wi * (den // sd)
        for a, ar, ai in zip(cols, pr, pi):
            ur, ui = fr * ar - fi * ai, fr * ai + fi * ar  # f * P_alpha
            rr, ri = re[a], im[a]
            for b, br, bi in zip(cols, pr, pi):
                rr[b] += ur * br + ui * bi
                ri[b] += ui * br - ur * bi
    _require_hermitian(den, re, im)
    # den can share a factor with every entry (weight 2 on z1/2, or weights that cancel)
    g = math.gcd(den, *(math.gcd(*row) for row in re + im))
    re, im = ([[v // g for v in row] for row in part] for part in (re, im))
    return HermitianBiform._from_ints(n_vars, d, den // g, re, im)


def biform_from_squares(
    n_vars: int,
    d: int,
    plus: Sequence[HomogPoly],
    minus: Sequence[HomogPoly] = (),
) -> HermitianBiform:
    """The biform sum |p_1|^2 + ... + |p_k|^2 - |q_1|^2 - ... - |q_m|^2."""
    return recompose_squares(n_vars, d, [(1, p) for p in plus] + [(-1, q) for q in minus])


def biform_rank(form: HermitianBiform, _bound: Optional[int] = None, _count: Optional[int] = None) -> int:
    """Exact rank of the coefficient matrix, from its integer parts (den
    times the matrix has the same rank).  A real form's rows of ints go to
    ``exact_rank``, row elimination over the integers.  A non-real form's
    rows of ``(re, im)`` int pairs are first ranked modulo
    ``RANK_PRIMES[0]`` by ``rank_mod_prime``.  ``_bound`` is an upper
    bound on the rank known from elsewhere (``hermitian_report`` passes r*n
    for a product by a signed norm), the row count when None: since
    rank_p <= rank <= min(rows, bound), a modular rank that reaches
    min(rows, bound) proves the rank.  Otherwise the rank comes from
    ``exact_rank``'s fraction-free elimination over the Gaussian integers.
    Neither path shares code with the congruence kernel of
    ``biform_signature``, so rank == p + q checks the two.

    ``_count`` is the caller's own count of the rank (``hermitian_report``
    passes the form's p + q).  When it is below min(rows, bound), the
    modular rank is not tried and ``exact_rank`` answers.  This is sound:
    as rank_p <= rank, the modular rank reaches min(rows, bound) only when
    the rank does; the rank is then not ``_count``, and the caller's check
    rank == p + q fails on the exact rank as it would on the certified one.
    So ``_count`` only picks the path and is never the answer."""
    if form.im is None:
        return exact_rank([{j: a for j, a in enumerate(ra) if a} for ra in form.re])
    rows = [{j: (a, b) for j, (a, b) in enumerate(zip(ra, ia)) if a or b} for ra, ia in zip(form.re, form.im)]
    top = len(rows) if _bound is None else min(len(rows), _bound)
    if (_count is None or _count >= top) and rank_mod_prime(rows, RANK_PRIMES[0]) == top:
        return top
    return exact_rank(rows)


def _congruence_steps(re: list[list[int]], im: Optional[list[list[int]]]):
    """Fraction-free Hermitian congruence elimination of W = re + i*im over
    the Gaussian integers (``im`` None for a real W); yields
    ``(delta, rest, x, y, g)`` once per step.

    Each step works on the live rows of W, those with a nonzero entry,
    and the run ends when none is left.  It takes a direction u and sets
    delta = u^H W u and w = W u: u = e_k at the nonzero diagonal entry of
    smallest |d| (the first index on ties) or, if the diagonal is zero,
    u = e_i + conj(a) e_j for the first off-diagonal a = W[i][j] != 0, so
    that delta = 2|a|^2 > 0.  It replaces W by |delta| W - sgn(delta) w w^H
    on ``rest``, the live rows but k (all of them after a zero-diagonal
    step), and divides that by its positive content g.  The content is a
    running gcd over the new rows, one row at a time, that stops once it
    reaches 1: by associativity it is the gcd of every entry, and no later
    row can take it below 1.  So a zero row leaves in the step that finds
    it, as does the row k an e_k step makes zero.  When an e_k step's w vanishes off k (column k of W is zero but
    for its diagonal), that matrix is |delta| times W on ``rest``, so the
    step takes g = |delta| and goes on with W on ``rest`` as it stands,
    with no multiply and no division: on a diagonal W every step is one.
    The step yields delta, w = x + iy (``y`` None for a real W) over
    the rows of its W, ``rest`` as positions among those rows, and g.
    Only ``decompose`` maps positions back to the input's rows, so only it
    keeps that index.

    Why the counts are exact: W = w w^H / delta + S with S u = 0, and in
    a basis holding u (u replaces e_i by a unit triangular change) this is
    the congruence W ~ diag(delta, S).  So sig W = sign(delta) + sig S,
    and the new W is the positive multiple |delta| S / g of S.  By
    Sylvester's law of inertia the signs of all the deltas are the
    signature, whatever the directions.

    Entry growth: divide each step's result by the previous step's
    |delta| in place of the content (Bareiss).  That division is exact and
    leaves |D| S, with S the Schur complement of the input W0 on the
    directions U taken so far and D = det(U^H W0 U), so its entries are
    the bordered determinants det([U, e_r]^H W0 [U, e_s]).  The argument
    needs only Gaussian-integer directions, so it covers the zero-diagonal
    step too.  The kernel's W is a positive multiple of |D| S with content
    1, its primitive part, or after a step that vanishes off k the part of
    that matrix on ``rest``, so Hadamard's bound on those determinants
    bounds it.  An e_k direction adds no length to U; a zero-diagonal
    direction has length about |a|, so each such step can add the bits of
    its a to every later bound, and no better bound is claimed for a run
    of them.
    """
    while True:
        live = [t for t in range(len(re)) if any(re[t]) or (im and any(im[t]))]
        if not live:
            return
        k = min((t for t in live if re[t][t]), key=lambda t: abs(re[t][t]), default=None)
        if k is not None:
            delta, x, y = re[k][k], re[k], im and [-v for v in im[k]]
        else:
            i = live[0]  # with a zero diagonal, row i's first nonzero entry lies past i
            j = next(s for s in live if re[i][s] or (im and im[i][s]))
            ar, ai = re[i][j], im[i][j] if im else 0
            delta = 2 * (ar * ar + ai * ai)
            x = [ri + ar * rj for ri, rj in zip(re[i], re[j])]
            y = im and [-ii - ar * ij - ai * rj for ii, ij, rj in zip(im[i], im[j], re[j])]
            if im:
                x = [v - ai * ij for v, ij in zip(x, im[j])]
        scale = abs(delta)
        rest = [t for t in live if t != k]
        if k is not None and x.count(0) == len(x) - 1 and not (im and any(im[k])):
            # w = W e_k vanishes off k: S is W on rest, so at g = |delta| the new |delta| S / g is W on rest
            yield delta, rest, x, y, scale
            re = [[row[s] for s in rest] for row in map(re.__getitem__, rest)]
            im = im and [[row[s] for s in rest] for row in map(im.__getitem__, rest)]
            continue
        sx = [-v for v in x] if delta < 0 else x
        sy = y and ([-v for v in y] if delta < 0 else y)
        new_re, new_im = [], []
        for r in rest:
            row, xr = re[r], x[r]
            if im:
                irow, yr = im[r], y[r]
                new_re.append([scale * row[s] - xr * sx[s] - yr * sy[s] for s in rest])
                new_im.append([scale * irow[s] - yr * sx[s] + xr * sy[s] for s in rest])
            elif xr:
                new_re.append([scale * row[s] - xr * sx[s] for s in rest])
            else:
                new_re.append([scale * row[s] for s in rest])
        g = 0
        for row in new_re + new_im:
            g = math.gcd(g, *row)
            if g == 1:
                break
        g = g or 1
        if g > 1:
            new_re = [[v // g for v in row] for row in new_re]
            new_im = [[v // g for v in row] for row in new_im]
        yield delta, rest, x, y, g
        re, im = new_re, new_im or None


def biform_signature(form: HermitianBiform) -> SignaturePair:
    """Signature (p, q) of the coefficient matrix, exactly: the signs of
    the steps of the Gaussian-integer congruence kernel
    (:func:`_congruence_steps`) on the matrix scaled to integers."""
    p = q = 0
    for delta, *_ in _congruence_steps(form.re, form.im):
        if delta > 0:
            p += 1
        else:
            q += 1
    return SignaturePair(p, q)


def decompose(form: HermitianBiform) -> list[SquareTerm]:
    """Write the form as a weighted sum of squares of independent
    holomorphic polynomials: M = sum_i weight_i * |m_i(z)|^2, exactly.

    Each step (delta, w) of the congruence kernel (:func:`_congruence_steps`)
    on the scaled matrix gives the square weight delta / lam with vector
    w / delta, read on the input rows that the step's positions stand for;
    the step's ``rest`` then picks the positions that go on.  Here lam is
    the running scale of the kernel's matrix over the exact Schur
    complement of M: it starts at the lcm of the denominators and each step
    multiplies it by |delta| / g.  There are p + q terms with p positive
    and q negative weights.  When a weight's absolute value is a perfect
    rational square it is folded into the polynomial, leaving weight +-1
    (see :class:`SquareTerm` for why unit weights are not always
    reachable).  Recomposition with :func:`recompose_squares` reproduces
    the matrix entry for entry.
    """
    basis = form.basis
    lam = Fraction(form.den)
    out = []
    index = list(range(form.dim))  # the input row of each position
    for delta, rest, x, y, g in _congruence_steps(form.re, form.im):
        weight = delta / lam
        lam = lam * abs(delta) / g
        root = _perfect_square_root(abs(weight))
        factor = Fraction(1, delta)
        if root is not None:
            factor *= root
            weight = Fraction(1) if weight > 0 else Fraction(-1)
        terms = {
            basis[t]: GaussianRational(xr * factor, yr * factor)
            for t, xr, yr in zip(index, x, y or [0] * len(x))
            if xr or yr
        }
        out.append(SquareTerm(weight, HomogPoly(form.n_vars, form.half_degree, terms)))
        index = [index[t] for t in rest]
    return out


def _perfect_square_root(value: Fraction) -> Optional[Fraction]:
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


@lru_cache(maxsize=None)
def _raised(n_vars: int, d: int) -> tuple[tuple[int, ...], ...]:
    """For each variable j, the index of alpha + e_j in the degree-(d+1)
    basis for every degree-d alpha, in the order of alpha: a bijection onto
    the degree-(d+1) monomials with a positive exponent of z_(j+1).
    Shared; never mutated."""
    index = {m: i for i, m in enumerate(monomials_of_degree(n_vars, d + 1))}
    return tuple(
        tuple(index[a[:j] + (a[j] + 1,) + a[j + 1:]] for a in monomials_of_degree(n_vars, d))
        for j in range(n_vars)
    )


def multiply_signed_norm(form: HermitianBiform, norm: SignedNorm | tuple[int, int]) -> HermitianBiform:
    """Multiply by the signed norm of signature (s, t): the bidegree goes
    up by one and the product entry at (A, B) is the signed sum of the
    entries at (A - e_j, B - e_j).

    Built from one cached table per (n, d) that gives, for each j, the
    index of alpha + e_j in degree d + 1 for every degree-d alpha.  Each j
    is then a scatter-add of the rows of ``re`` and ``im``: the entry at
    (alpha, beta) is added at (alpha + e_j, beta + e_j), or subtracted
    for j >= s, on the same ints over the same ``den``.  The norm is
    primitive, so by Gauss's lemma over Z[i] the product is in least terms."""
    s, t = norm
    _require_signed_norm(form.n_vars, norm)
    raised = _raised(form.n_vars, form.half_degree)
    dim = len(monomials_of_degree(form.n_vars, form.half_degree + 1))

    def times_norm(mat):
        out = [[0] * dim for _ in range(dim)]
        for j, up in enumerate(raised):
            for a, src in zip(up, mat):
                row = out[a]
                if j < s:
                    for b, v in zip(up, src):
                        row[b] += v
                else:
                    for b, v in zip(up, src):
                        row[b] -= v
        return out

    re, im = (times_norm(part) if part else None for part in (form.re, form.im))
    return HermitianBiform._from_ints(form.n_vars, form.half_degree + 1, form.den, re, im)


def _require_signed_norm(n_vars: int, norm: SignedNorm | tuple[int, int]) -> None:
    """Raise ``ValueError`` unless the signed norm (s, t) splits n_vars."""
    s, t = norm
    if s < 0 or t < 0 or s + t != n_vars:
        raise ValueError(f"signed norm ({s},{t}) does not match {n_vars} variables")


def multiply_norm_power(form: HermitianBiform, power: int) -> HermitianBiform:
    """Multiply by the Euclidean norm squared, ``power`` times."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    out = form
    for _ in range(power):
        out = multiply_signed_norm(out, SignedNorm(form.n_vars, 0))
    return out


# ---------------------------------------------------------------------------
# Rank and signature bounds for products with signed norms
# ---------------------------------------------------------------------------

def product_rank_interval(r: int, n: int) -> tuple[int, int]:
    """Bounds on the rank R of M * (any signed norm) when M has rank r in
    n variables:  2 * r_(n-1)|_0^1 - r*n  <=  R  <=  r*n."""
    if r < 1:
        raise ValueError("rank bounds need rank >= 1; a zero form has no interval")
    return 2 * shift_apply(r, n - 1, 0, 1) - r * n, r * n


def sos_min_positive_part(r: int, n: int, l: int) -> Fraction:
    """Lower bound on p when a rank-r form times the l-th norm power is a
    sum of squared norms:  p >= r_(n-1)|_0^l / C(n-1+l, l)."""
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
    if p < 1 or l < 1:
        raise ValueError("need p >= 1 and l >= 1")
    tail = shift_apply(p, n - 1, -l if alternate else -1, l - 1)
    return p * math.comb(n - 1 + l, l) - p - tail


def sos_rank_interval(p: int, q: int, n: int, l: int) -> tuple[int, int]:
    """Bounds on the rank R of the l-th norm-power product of a
    signature-(p, q) form, assuming that product is a sum of squared
    norms:  (p+q)_(n-1)|_0^l - q*C(n-1+l, l)  <=  R  <=  p*C(n-1+l, l)."""
    if p < 0 or q < 0 or p + q < 1 or l < 1:
        raise ValueError("need p, q >= 0, p + q >= 1, l >= 1")
    low = shift_apply(p + q, n - 1, 0, l)
    c = math.comb(n - 1 + l, l)
    return low - q * c, p * c


def is_sum_of_squares(form: HermitianBiform) -> bool:
    """True iff the form is a sum of squared norms of holomorphic
    polynomials, i.e. its matrix is positive semidefinite (q == 0): no
    step of the congruence kernel is negative, so the first negative step
    answers without counting the rest of the signature."""
    return all(delta > 0 for delta, *_ in _congruence_steps(form.re, form.im))


def find_min_sos_exponent(form: HermitianBiform, l_max: int) -> Optional[int]:
    """Smallest 1 <= l <= l_max such that form * ||z||^(2l) is a sum of
    squared norms, or None if no such l exists in range.  Once a power
    works, every larger power works too, since multiplying a sum of
    squares by the norm keeps it a sum of squares.  A power over the size
    limit raises ``ValueError`` before it is built, as in
    ``hermitian_report``; a search that ends below the limit answers."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    product = form
    for l in range(1, l_max + 1):
        _require_power_basis(form.n_vars, form.half_degree, l)
        product = multiply_signed_norm(product, SignedNorm(form.n_vars, 0))
        if is_sum_of_squares(product):
            return l
    return None


def hermitian_report(form: HermitianBiform, norm: SignedNorm | tuple[int, int], l: int) -> tuple[dict, dict]:
    """The outputs, JSON values in report order, and the verdicts that the
    ``hermitian`` subcommand renders for ``form``, the signed norm (s, t)
    and the norm power l.  A verdict is True, False, or None where its
    bound does not apply: all four for the zero form, the sum-of-squares
    ones unless form * ||z||^(2l) is a sum of squared norms.  Raises
    ``ValueError`` for n < 2, an (s, t) that does not split n, or a power
    over the size limit, in that order and whatever the form.

    The form's rank r is checked against its p + q (passed to
    ``biform_rank`` as ``_count``, which picks its path), and the product's
    rank R is ranked against the bound R <= r*n (``biform_rank``'s
    ``_bound``).  At l = 1 and R = r*n the norm power needs no matrix: its
    signature is (p*n, q*n) and its rank r*n.  Proof: write M = W C W^H
    with W of full column rank r and C = diag(+-1) holding p pluses.  The
    product by the signed norm (s, t) is V D V^H, where the columns of V
    are E_j W for j = 1..n, E_j the shift alpha -> alpha + e_j (the
    ``_raised`` table), and D = diag(eps_j C) with eps_j = +1 for j <= s,
    else -1.  So R <= rank V <= r*n, and R = r*n makes V of full column
    rank.  V does not depend on (s, t), so every signed product, the
    Euclidean power included, then has the inertia of its D: by
    Sylvester's law, (p*s + q*t, p*t + q*s), which is (p*n, q*n) at
    (n, 0).  Elsewhere the power's signature comes from the congruence
    kernel, and at (n, 0) and l = 1, where the power is the product, its
    p + q is checked against R.
    """
    n, (s, t) = form.n_vars, norm
    _require_report_inputs(n, form.half_degree, norm, l)
    verdicts = dict.fromkeys(("product_rank_bounds", "positive_part_bound", "negative_part_bound", "sos_rank_interval"))
    if form.is_zero():
        return {"note": "zero form: rank and signature bounds do not apply"}, verdicts
    sig = biform_signature(form)
    r = biform_rank(form, _count=sig.rank)
    if r != sig.rank:
        raise ArithmeticError(f"rank {r} of the form differs from p + q = {sig.rank}")
    euclidean = (s, t) == (n, 0)
    low, high = product_rank_interval(r, n)
    product = multiply_signed_norm(form, (s, t))
    rank_product = biform_rank(product, high)
    if l == 1 and rank_product == high:
        power_sig = SignaturePair(sig.p * n, sig.q * n)
    else:
        power = multiply_norm_power(product, l - 1) if euclidean else multiply_norm_power(form, l)
        power_sig = biform_signature(power)
        # at (s, t) = (n, 0) the power extends the product, and at l = 1 it is the product
        if euclidean and l == 1 and rank_product != power_sig.rank:
            raise ArithmeticError(f"rank {rank_product} of the product differs from p + q = {power_sig.rank}")
    outputs = {
        "signature": {"p": sig.p, "q": sig.q},
        "rank": r,
        "product_rank": rank_product,
        "product_rank_interval": [low, high],
        "norm_power_rank": power_sig.rank,
        "norm_power_is_sum_of_squares": power_sig.q == 0,
    }
    verdicts["product_rank_bounds"] = low <= rank_product <= high
    if power_sig.q == 0:
        p_bound = sos_min_positive_part(r, n, l)
        q_bound = sos_max_negative_part(sig.p, n, l)
        r_low, r_high = sos_rank_interval(sig.p, sig.q, n, l)
        outputs["positive_part_bound"] = str(p_bound)
        outputs["negative_part_bound"] = q_bound
        outputs["negative_part_bound_alternate_subscripts"] = sos_max_negative_part(sig.p, n, l, alternate=True)
        outputs["sos_rank_interval"] = [r_low, r_high]
        verdicts["positive_part_bound"] = sig.p >= p_bound
        verdicts["negative_part_bound"] = sig.q <= q_bound
        verdicts["sos_rank_interval"] = r_low <= power_sig.rank <= r_high
    return outputs, verdicts


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
    Recomposition refuses a polynomial of the wrong variable count or
    degree, on the witness side before any norm product is built.
    Then, in degree d + l, the pieces generated by m_minus and by h must
    both sit inside the piece generated by m_plus (so in particular the
    ideals generated by all m's and by m_plus agree there).  Dimensions
    are compared exactly via graded pieces, one test per containment: the
    piece generated by m_plus with m_minus (or h) contains m_plus's piece,
    so the two are equal, with m_minus's (or h's) piece inside m_plus's,
    just when their dimensions agree.  The dimension of m_minus's own
    piece would decide nothing more.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    everything = list(m_plus) + list(m_minus)
    if not everything:
        raise ValueError("need at least one polynomial on the m side")
    n_vars = everything[0].n_vars
    d = everything[0].degree
    base = biform_from_squares(n_vars, d, m_plus, m_minus)
    witness = biform_from_squares(n_vars, d + l, h)
    if multiply_norm_power(base, l) != witness:
        raise ValueError("witness identity fails: the recomposed matrices differ")

    def dim_of(gens: Sequence[HomogPoly]) -> int:
        return graded_piece_dim(GradedIdeal(n_vars, tuple(g for g in gens if not g.is_zero())), d + l)

    dim_plus = dim_of(m_plus)
    return dim_of(list(m_plus) + list(m_minus)) == dim_plus and dim_of(list(m_plus) + list(h)) == dim_plus


# ---------------------------------------------------------------------------
# Shared text format for biforms
# ---------------------------------------------------------------------------

# The largest basis, C(n_vars - 1 + d, d) monomials, that ``parse_biform``
# builds and that a norm power may reach: its coefficient matrix has the
# square of that many entries.  It also bounds n_vars, d and the norm
# power l, which the basis size alone does not when d = 0 or n_vars = 1.
MAX_BIFORM_DIM = 1000


def _require_power_basis(n_vars: int, d: int, l: int) -> None:
    """Raise ``ValueError`` unless l >= 1 and a degree-d form in n_vars
    variables times ||z||^(2l) has at most ``MAX_BIFORM_DIM`` basis
    monomials.  The bound on l comes first, for every n_vars: with
    n_vars >= 2 the basis has over l monomials, and with n_vars = 1 it has
    one, so no basis size bounds the l-fold product there."""
    if l < 1 or l > MAX_BIFORM_DIM:
        raise ValueError(f"l = {l} is not in [1, {MAX_BIFORM_DIM}]")
    if (dim := math.comb(n_vars - 1 + d + l, d + l)) > MAX_BIFORM_DIM:
        raise ValueError(f"at l = {l}, the norm power of degree {d + l} in {n_vars} variables has {dim} basis monomials, over {MAX_BIFORM_DIM}")


def _require_report_inputs(n_vars: int, d: int, norm: SignedNorm | tuple[int, int], l: int) -> None:
    """``hermitian_report``'s input checks, which need no matrix: raise
    ``ValueError`` for n_vars < 2, an (s, t) that does not split n_vars,
    or a norm power over the size limit, in that order."""
    if n_vars < 2:
        raise ValueError(f"the bounds need at least 2 variables, got {n_vars}")
    _require_signed_norm(n_vars, norm)
    _require_power_basis(n_vars, d, l)


def format_biform(form: HermitianBiform) -> str:
    """Serialize to the shared JSON document.  Only the upper triangle is
    written, straight from (den, re, im); parsing restores the rest by
    Hermitian completion.  All rationals are "p/q" strings, each cell
    written as ``str(Fraction(v, den))`` would write it, so the round trip
    is bit exact."""
    basis, den, re = form.basis, form.den, form.re
    im = form.im or ((0,) * form.dim,) * form.dim

    def part(v: int) -> str:
        g = math.gcd(v, den)
        return str(v // g) if g == den else f"{v // g}/{den // g}"

    terms = [
        {"alpha": basis[i], "beta": basis[j], "coeff": {"re": part(re[i][j]), "im": part(im[i][j])}}
        for i in range(form.dim)
        for j in range(i, form.dim)
        if re[i][j] or im[i][j]
    ]
    doc = {"n_vars": form.n_vars, "d": form.half_degree, "terms": terms}
    return _json_text(doc)


def parse_biform(text: str, check: Optional[Callable[[int, int], None]] = None) -> HermitianBiform:
    """Parse the shared biform document.

    Each term is {"alpha": [...], "beta": [...], "coeff": {"re": "p/q",
    "im": "p/q"}} and contributes coeff * z^alpha * conj(z)^beta.  The
    listed terms, as exact (re, im) parts, and the conjugate of each term
    whose mirror (beta, alpha) is not listed go to
    :func:`biform_from_terms`, which sums repeated pairs and fills the
    rest with zeros; so an unlisted mirror is the conjugate of the sum at
    (alpha, beta), by Hermitian completion.  When both (alpha, beta) and
    (beta, alpha) are listed they must actually be conjugates, and a
    listed diagonal must be real, or the constructor rejects the matrix.
    Every schema fault raises ``ValueError``, and so does an ``n_vars`` or
    ``d`` over ``MAX_BIFORM_DIM`` or a basis of more than that many
    monomials, before any of it is built.

    Parsing runs in two steps: the document and its terms are read and
    checked, and the basis built, first; the matrix is built last.  A
    caller's ``check(n_vars, d)`` runs between the two, so that a form
    the caller cannot use is refused before its matrix costs anything.
    """
    doc = _json_document(text, ("n_vars", "d", "terms"), "biform document")
    n_vars = _json_int(doc["n_vars"], "n_vars")
    d = _json_int(doc["d"], "d")
    for name, value in (("n_vars", n_vars), ("d", d)):
        if value > MAX_BIFORM_DIM:
            raise ValueError(f"{name} = {value} is over {MAX_BIFORM_DIM}")
    if n_vars >= 1 and d >= 0 and (dim := math.comb(n_vars - 1 + d, d)) > MAX_BIFORM_DIM:
        raise ValueError(f"a biform of degree {d} in {n_vars} variables has {dim} basis monomials, over {MAX_BIFORM_DIM}")
    terms = []
    for term in _json_list(doc["terms"], "terms"):
        term = _json_object(term, ("alpha", "beta", "coeff"), "term")
        alpha = _json_exponents(term["alpha"], "alpha")
        beta = _json_exponents(term["beta"], "beta")
        coeff = _json_object(term["coeff"], ("re", "im"), "coeff")
        terms.append((alpha, beta, (_json_rational(coeff["re"], "re"), _json_rational(coeff["im"], "im"))))
    listed = {(alpha, beta) for alpha, beta, _ in terms}
    mirrors = [(beta, alpha, (re, -im)) for alpha, beta, (re, im) in terms if (beta, alpha) not in listed]
    monomials_of_degree(n_vars, d)  # refuses n_vars < 1 or d < 0 as the build would, before the check
    if check is not None:
        check(n_vars, d)
    return biform_from_terms(n_vars, d, terms + mirrors)
