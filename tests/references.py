"""Brute-force references and instance generators that only the tests use.

Each checks a main code path from a different direction: Macaulay
representations by exhaustive search instead of greedy construction,
monomial Hilbert values by counting instead of rank, congruences by
explicit Gaussian-rational matrix products, and sum-of-squares instances
accepted only through exact signature checks.  ``biform_terms`` lists a
biform's nonzero terms, and ``divide_norm_power`` undoes norm products by
exact division, certified by multiplying back.  Diagonal Hermitian forms
are read off integer polynomial products, with the least sum-of-squares
power of one family in closed form.  ``integer_rows`` turns
rows of exact scalars into the integer rows the rank routines take, by
plain Fraction arithmetic.  Randomness flows through
``macaulay.oracle.SplitMix64``, so every instance is reproducible.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from macaulay.binom import MacaulayRep
from macaulay.hermitian import (
    GaussianRational,
    HermitianBiform,
    SignedNorm,
    _raised,
    biform_signature,
    is_sum_of_squares,
    multiply_norm_power,
    multiply_signed_norm,
    recompose_squares,
)
from macaulay.oracle import SplitMix64
from macaulay.poly import GradedIdeal, HomogPoly, Monomial, monomial_poly, monomials_of_degree


def brute_rep_oracle(a: int, n: int) -> MacaulayRep:
    """Find the n-th Macaulay representation by exhaustive search over all
    strictly decreasing upper-index sequences, and confirm it is unique.

    Deliberately does not reuse the greedy construction: candidate terms
    are enumerated level by level, pruned only by the sound bound "the
    remaining levels cannot reach the remainder".  Capped at a <= 10**5,
    n <= 8 to keep the search desk scale.
    """
    if a > 100_000 or n > 8:
        raise ValueError(f"brute-force caps exceeded: a={a}, n={n}")
    if a < 0 or n < 1:
        raise ValueError("need a >= 0 and n >= 1")
    if a == 0:
        return MacaulayRep(n, ())

    def max_reachable(j: int, upper: int) -> int:
        total = 0
        u = upper
        for i in range(j, 0, -1):
            if u < i:
                break
            total += math.comb(u, i)
            u -= 1
        return total

    solutions: list[tuple[tuple[int, int], ...]] = []

    def search(j: int, remainder: int, upper: int, prefix: list[tuple[int, int]]) -> None:
        if remainder == 0:
            solutions.append(tuple(prefix))
            return
        if j == 0 or max_reachable(j, upper) < remainder:
            return
        for u in range(upper, j - 1, -1):
            c = math.comb(u, j)
            if c > remainder:
                continue
            prefix.append((u, j))
            search(j - 1, remainder - c, u - 1, prefix)
            prefix.pop()

    top = n
    while math.comb(top + 1, n) <= a:
        top += 1
    search(n, a, top, [])
    if len(solutions) != 1:
        raise AssertionError(f"expected a unique representation of {a} at index {n}, found {len(solutions)}")
    return MacaulayRep(n, solutions[0])


def brute_hilbert_monomial(ideal: GradedIdeal, d: int) -> int:
    """dim I_d for a monomial ideal, by counting degree-d monomials
    divisible by at least one generator.  No linear algebra involved."""
    gen_monos = []
    for g in ideal.generators:
        if len(g.terms) != 1:
            raise ValueError("brute monomial count needs single-monomial generators")
        gen_monos.append(next(iter(g.terms)))
    count = 0
    for m in monomials_of_degree(ideal.n_vars, d):
        if any(all(me >= ge for me, ge in zip(m, g)) for g in gen_monos):
            count += 1
    return count


def exhaustive_monomial_corpus(max_vars: int = 3, max_gens: int = 3, max_degree: int = 3) -> list[GradedIdeal]:
    """Every monomial ideal with at most ``max_gens`` distinct generators
    of degree <= ``max_degree`` in 1..``max_vars`` variables."""
    corpus = []
    for n_vars in range(1, max_vars + 1):
        pool: list[Monomial] = []
        for degree in range(1, max_degree + 1):
            pool.extend(monomials_of_degree(n_vars, degree))
        for size in range(1, max_gens + 1):
            for combo in itertools.combinations(pool, size):
                corpus.append(GradedIdeal(n_vars, tuple(monomial_poly(m) for m in combo)))
    return corpus


def poly_product(f: dict[Monomial, int], g: dict[Monomial, int]) -> dict[Monomial, int]:
    """The product of two integer polynomials, each a dict from exponent
    tuples to coefficients, by plain convolution; zero terms are dropped.

    For a diagonal form M = sum_a c_a |z^a|^2 and the signed norm
    N = sum_j e_j |z_j|^2, M * N^l is diagonal with the coefficients of
    p(x) * (sum_j e_j x_j)^l at |z^b|^2, where p(x) = sum_a c_a x^a."""
    out: dict[Monomial, int] = {}
    for a, ca in f.items():
        for b, cb in g.items():
            m = tuple(x + y for x, y in zip(a, b))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def diagonal_min_sos_power(lam: Fraction) -> int:
    """The least l >= 1 with (|z1|^4 - lam |z1 z2|^2 + |z2|^4) * ||z||^(2l) a
    sum of squares, for 0 <= lam < 2: the least N with 2N/(N+2) >= lam for
    even N, or (2N+2)/(N+3) >= lam for odd N.

    The coefficient of x^(j+1) y^(N+1-j) in (x^2 - lam xy + y^2)(x + y)^N
    is C(N, j-1) - lam C(N, j) + C(N, j+1), nonnegative iff lam is at most
    j/(N-j+1) + (N-j)/(j+1), which is least at the middle j."""
    if not 0 <= lam < 2:
        raise ValueError(f"need 0 <= lam < 2, got {lam}")

    def middle_ratio(n: int) -> Fraction:
        return Fraction(2 * n, n + 2) if n % 2 == 0 else Fraction(2 * n + 2, n + 3)

    n = 1
    while middle_ratio(n) < lam:
        n += 1
    return n


def integer_rows(rows: list[dict[int, object]]) -> list[dict[int, object]]:
    """The rows ``exact_rank`` takes, spanning the same space as sparse rows
    of ints, Fractions and Gaussian rationals: each row times the lcm of its
    denominators, zero entries and zero rows dropped, as ints when every
    entry is real and as ``(re, im)`` int pairs otherwise."""
    split = [{c: (Fraction(getattr(v, "re", v)), Fraction(getattr(v, "im", 0))) for c, v in row.items()}
             for row in rows]
    gaussian = any(im for row in split for _, im in row.values())
    out = []
    for row in split:
        den = math.lcm(*(x.denominator for pair in row.values() for x in pair))
        ints = {c: (int(re * den), int(im * den)) for c, (re, im) in row.items() if re or im}
        if ints:
            out.append(ints if gaussian else {c: re for c, (re, _) in ints.items()})
    return out


def random_invertible_matrix(dim: int, seed: int) -> list[list[GaussianRational]]:
    """A deterministic invertible Gaussian-rational matrix: unit lower
    triangular times nonzero diagonal times unit upper triangular."""
    rng = SplitMix64(seed)

    def small() -> GaussianRational:
        return GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))

    lower = [[GaussianRational(1) if i == j else (small() if i > j else GaussianRational()) for j in range(dim)] for i in range(dim)]
    upper = [[GaussianRational(1) if i == j else (small() if i < j else GaussianRational()) for j in range(dim)] for i in range(dim)]
    diag = [GaussianRational(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))) for _ in range(dim)]
    out = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = GaussianRational()
            for k in range(dim):
                acc = acc + lower[i][k] * diag[k] * upper[k][j]
            out[i][j] = acc
    return out


def congruence_transform(form: HermitianBiform, c: list[list[GaussianRational]]) -> HermitianBiform:
    """C^H * matrix * C as a biform over the same basis (C invertible
    preserves rank and signature by Sylvester's law)."""
    dim = form.dim
    matrix = form.matrix
    tmp = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = GaussianRational()
            for k in range(dim):
                acc = acc + matrix[i][k] * c[k][j]
            tmp[i][j] = acc
    out = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = GaussianRational()
            for k in range(dim):
                acc = acc + c[k][i].conjugate() * tmp[k][j]
            out[i][j] = acc
    return HermitianBiform(form.n_vars, form.half_degree, out)


def biform_terms(form: HermitianBiform) -> list[tuple[Monomial, Monomial, GaussianRational]]:
    """The nonzero (alpha, beta, coeff) triples of a biform."""
    basis = form.basis
    out = []
    for i, row in enumerate(form.matrix):
        for j, v in enumerate(row):
            if v:
                out.append((basis[i], basis[j], v))
    return out


def divide_norm_power(form: HermitianBiform, power: int) -> Optional[HermitianBiform]:
    """Exact quotient by the Euclidean norm squared to the given power, or
    None when the form is not divisible.

    One division step solves F[A][B] = sum_j M[A-e_j][B-e_j] for M row by
    row: with A = alpha + e_1 and B = beta + e_1, F[A][B] is M[alpha][beta]
    plus entries in the rows A - e_j (j > 1), which come before alpha in
    the basis order (they agree with alpha in the exponents of z_n down to
    z_(j+1) and have a smaller exponent of z_j).  So once a row of M is
    solved, its j > 1 terms are subtracted from the rows of F they land
    in, through the table of :func:`multiply_signed_norm`.  It then
    certifies the candidate by multiplying back.
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
    n, d = form.n_vars, form.half_degree - 1
    first, *others = _raised(n, d)

    def divided(mat):
        rest = [list(row) for row in mat]
        out = []
        for a, ia in enumerate(first):
            solved = [rest[ia][ib] for ib in first]
            out.append(solved)
            for up in others:
                row = rest[up[a]]
                for b, v in zip(up, solved):
                    row[b] -= v
        return out

    re, im = (divided(part) if part else None for part in (form.re, form.im))
    candidate = HermitianBiform._from_ints(n, d, form.den, re, im)
    # M -> M * ||z||^2 is injective and commutes with the conjugate transpose,
    # so a candidate that multiplies back to the Hermitian form is Hermitian,
    # and in least terms as the form is; any other candidate is dropped.
    if multiply_signed_norm(candidate, SignedNorm(n, 0)) != form:
        return None
    return candidate


def random_sos_instance(n_vars: int, d: int, l: int, seed: int) -> HermitianBiform:
    """A deterministic nonzero biform M whose product with ||z||^(2l) is a
    sum of squared norms, built from the positive side.

    A family of squared degree-d polynomials fixes a positive-semidefinite
    base (q = 0), for which any norm power is automatically a sum of
    squares.  When d >= 2, the generator overweighs
    one negative square inside the family's span so that M itself has
    q >= 1 while the degree-(d+l) product stays positive semidefinite.
    Every candidate is accepted only through an exact signature check of
    both M and the product, with the positive-semidefinite base as the
    fallback.  For d == 1 no mixed instance exists at all: a bidegree
    (1,1) form with q > 0 is negative somewhere, which no sum of squared
    norms times a positive factor can be."""
    rng = SplitMix64(seed)
    basis = monomials_of_degree(n_vars, d)
    count = rng.randint(2, min(4, len(basis)))
    picks = set()
    while len(picks) < count:
        picks.add(rng.randrange(len(basis)))
    family = [monomial_poly(basis[i]) for i in sorted(picks)]
    base = recompose_squares(n_vars, d, [(Fraction(1), f) for f in family])

    candidates: list[tuple[list[HomogPoly], HomogPoly]] = []
    non_pure = [m for m in basis if max(m) < d]
    full = [monomial_poly(m) for m in basis]
    for _ in range(4):
        if non_pure:
            g = monomial_poly(rng.choice(non_pure))
            fam = list(full)
            if len(fam) > 2 and rng.randrange(2):
                fam.pop(rng.randrange(len(fam)))
            candidates.append((fam, g))
        if len(family) >= 2:
            i, j = sorted(rng.randrange(len(family)) for _ in range(2))
            if i != j:
                sign = rng.choice([Fraction(1), Fraction(-1)])
                candidates.append((list(family), family[i] + sign * family[j]))
    for fam, g in candidates:
        if g.is_zero():
            continue
        for scale in (Fraction(9, 8), Fraction(5, 4), Fraction(4, 3)):
            candidate = recompose_squares(
                n_vars,
                d,
                [(Fraction(1), f) for f in fam] + [(Fraction(-1), scale * g)],
            )
            if candidate.is_zero():
                continue
            if biform_signature(candidate).q == 0:
                continue
            if is_sum_of_squares(multiply_norm_power(candidate, l)):
                return candidate
    return base
