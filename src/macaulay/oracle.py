"""Seeded instance generators, lex-segment ideals and sum-of-squares witnesses.

Reproducible corpora of random ideals and Hermitian forms for the
``corpus`` subcommand and the benchmark, the lex-segment growth probe, and
witnesses that flatten a positive decomposition to unit weights.  All
randomness flows through an explicit SplitMix64 generator so corpora are
bit-identical across runs, platforms, and reimplementations.  The
brute-force references that only the tests use live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .hermitian import GaussianRational, HermitianBiform, decompose
from .poly import (
    GradedIdeal,
    HomogPoly,
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
# Lex-segment ideals
# ---------------------------------------------------------------------------

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
        bound = macaulay_bound_ideal(h_d, n_vars)
        is_tight = h_d1 == bound
        tight += is_tight
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


# ---------------------------------------------------------------------------
# Sum-of-squares witnesses
# ---------------------------------------------------------------------------

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
