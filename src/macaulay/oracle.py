"""Independent brute-force references and seeded instance generators.

Everything here exists to check the main code paths from a different
direction: representations by exhaustive search instead of greedy
construction, monomial Hilbert values by counting instead of rank,
and reproducible corpora of random ideals and Hermitian forms.  All
randomness flows through an explicit SplitMix64 generator so corpora are
bit-identical across runs, platforms, and reimplementations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .binom import MacaulayRep
from .hermitian import (
    GaussianRational,
    HermitianBiform,
    biform_signature,
    decompose,
    is_sum_of_squares,
    multiply_norm_power,
    recompose_squares,
)
from .poly import (
    GradedIdeal,
    HomogPoly,
    Monomial,
    graded_piece_dim,
    macaulay_bound_ideal,
    monomial_poly,
    monomials_of_degree,
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator: state advances by the golden-gamma
    constant and the output is a finalizing bit mix.  Tiny, well known,
    and trivially portable, which is the whole point: seeded corpora must
    be reproducible outside this codebase."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        # modulo reduction: the tiny bias is irrelevant for test corpora
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


# ---------------------------------------------------------------------------
# Brute-force references
# ---------------------------------------------------------------------------

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


def lex_segment_ideal(n_vars: int, d: int, k: int) -> GradedIdeal:
    """The ideal generated by the k lexicographically largest degree-d
    monomials (z1 > z2 > ... > zn); the classical extremal growth case."""
    basis = sorted(monomials_of_degree(n_vars, d), reverse=True)
    if not 1 <= k <= len(basis):
        raise ValueError(f"k must be in 1..{len(basis)}, got {k}")
    return GradedIdeal(n_vars, tuple(monomial_poly(m) for m in basis[:k]))


def lex_growth_report(n_vars: int, d: int) -> dict:
    """How often lex-segment ideals hit the forward growth bound with
    equality.  Reported, never asserted: the bound is an inequality and
    nothing in this package claims sharpness."""
    dim = len(monomials_of_degree(n_vars, d))
    cases = []
    tight = 0
    for k in range(1, dim + 1):
        ideal = lex_segment_ideal(n_vars, d, k)
        h_d = graded_piece_dim(ideal, d)
        h_d1 = graded_piece_dim(ideal, d + 1)
        bound = macaulay_bound_ideal(h_d, n_vars) if n_vars >= 2 else None
        is_tight = bound is not None and h_d1 == bound
        tight += bool(is_tight)
        cases.append({"k": k, "h_d": h_d, "h_d1": h_d1, "bound": bound, "tight": is_tight})
    return {"n_vars": n_vars, "degree": d, "tight": tight, "total": dim, "cases": cases}


# ---------------------------------------------------------------------------
# Seeded corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusSpec:
    """Ranges (inclusive) describing a reproducible ideal corpus.

    The corpus holds exactly
    ``len(kinds) * draws * |n_vars range| * |gens range|`` ideals, one per
    (kind, n_vars, generator count, draw index) combination in that nested
    iteration order; generator degrees are drawn per generator from the
    degree range."""

    n_vars: tuple[int, int]
    gens: tuple[int, int]
    degrees: tuple[int, int]
    d_max: int
    seed: int
    draws: int = 1
    kinds: tuple[str, ...] = ("monomial", "dense")

    def __post_init__(self) -> None:
        for lo, hi in (self.n_vars, self.gens, self.degrees):
            if lo > hi or lo < 1:
                raise ValueError(f"bad range ({lo},{hi})")
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.d_max < 2:
            raise ValueError(f"d_max must be >= 2 to check any degree, got {self.d_max}")
        for kind in self.kinds:
            if kind not in ("monomial", "dense"):
                raise ValueError(f"unknown ideal kind {kind!r}")


def _random_monomial_generator(rng: SplitMix64, n_vars: int, degree: int) -> HomogPoly:
    return monomial_poly(rng.choice(monomials_of_degree(n_vars, degree)))


def _random_dense_generator(rng: SplitMix64, n_vars: int, degree: int) -> HomogPoly:
    while True:
        terms = {}
        for mono in monomials_of_degree(n_vars, degree):
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if coeff:
                terms[mono] = coeff
        if terms:
            return HomogPoly(n_vars, degree, terms)


def random_corpus(spec: CorpusSpec) -> list[GradedIdeal]:
    """The deterministic ideal corpus described by ``spec``."""
    rng = SplitMix64(spec.seed)
    corpus = []
    for kind in spec.kinds:
        make = _random_monomial_generator if kind == "monomial" else _random_dense_generator
        for n_vars in range(spec.n_vars[0], spec.n_vars[1] + 1):
            for gen_count in range(spec.gens[0], spec.gens[1] + 1):
                for _ in range(spec.draws):
                    gens = tuple(
                        make(rng, n_vars, rng.randint(*spec.degrees))
                        for _ in range(gen_count)
                    )
                    corpus.append(GradedIdeal(n_vars, gens))
    return corpus


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


def random_hermitian_instance(n_vars: int, d: int, seed: int) -> HermitianBiform:
    """A deterministic Hermitian biform with small Gaussian-rational
    entries; Hermitian symmetry holds by construction."""
    rng = SplitMix64(seed)
    dim = len(monomials_of_degree(n_vars, d))
    rows = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        for j in range(i + 1, dim):
            v = GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            )
            rows[i][j] = v
            rows[j][i] = v.conjugate()
    return HermitianBiform(n_vars, d, rows)


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


# ---------------------------------------------------------------------------
# Instances whose norm-power product is a sum of squared norms
# ---------------------------------------------------------------------------

def random_sos_instance(n_vars: int, d: int, l: int, seed: int, mixed: bool = True) -> HermitianBiform:
    """A deterministic nonzero biform M whose product with ||z||^(2l) is a
    sum of squared norms, built from the positive side.

    A family of squared degree-d polynomials fixes a positive-semidefinite
    base (q = 0), for which any norm power is automatically a sum of
    squares.  When ``mixed`` is set and d >= 2, the generator overweighs
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
    if not mixed:
        return base

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


def four_square(n: int) -> tuple[int, int, int, int]:
    """Some (x, y, z, u) with x^2 + y^2 + z^2 + u^2 == n, by bounded
    descending search.  Every nonnegative integer has one."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > 10**7:
        raise ValueError(f"{n} is beyond the brute-force cap")
    for x in range(math.isqrt(n), -1, -1):
        r1 = n - x * x
        for y in range(math.isqrt(r1), -1, -1):
            r2 = r1 - y * y
            for z in range(math.isqrt(r2), -1, -1):
                r3 = r2 - z * z
                u = math.isqrt(r3)
                if u * u == r3:
                    return (x, y, z, u)
    raise AssertionError("unreachable: four squares always exist")


def sos_witness(form: HermitianBiform) -> Optional[list[HomogPoly]]:
    """Holomorphic polynomials h_k with sum |h_k|^2 == form, exactly, or
    None when the form is not positive semidefinite.

    The positive weights of :func:`decompose` are flattened to unit
    weights by writing each weight as a sum of four rational squares and
    pairing the squares into at most two Gaussian-rational multipliers per
    square-term polynomial."""
    terms = decompose(form)
    if any(t.weight < 0 for t in terms):
        return None
    witnesses: list[HomogPoly] = []
    for weight, poly in terms:
        if weight == 1:
            witnesses.append(poly)
            continue
        x, y, z, u = four_square(weight.numerator * weight.denominator)
        den = weight.denominator
        for c in (GaussianRational(Fraction(x, den), Fraction(y, den)),
                  GaussianRational(Fraction(z, den), Fraction(u, den))):
            if c:
                witnesses.append(c * poly)
    return witnesses
