"""Signature oracle: Hermitian matrices whose signature is known by
construction.

A matrix C^H D C with C invertible has the signature of D (Sylvester's
law of inertia).  D is block diagonal: real 1x1 entries of chosen signs,
zeros among them, and 2x2 blocks [[0, a], [conj(a), 0]] with a != 0, each
of signature (1, 1).  The expected counts are read off the blocks, so the
oracle shares no pivoting with the congruence kernel behind
``biform_signature`` and ``decompose``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macaulay.hermitian import (
    GaussianRational,
    HermitianBiform,
    biform_from_terms,
    biform_signature,
    decompose,
    recompose_squares,
    zero_biform,
)
from macaulay.oracle import SplitMix64
from references import congruence_transform, random_invertible_matrix

DIAGONAL = [Fraction(-3), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5)]
PARTS = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3)])


def mat_mul(x, y):
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), GaussianRational()) for j in range(n)] for i in range(n)]


@st.composite
def real_invertible(draw, dim):
    """Permutation times unit lower times unit upper triangular, with
    small integer entries: real and invertible."""
    small = st.integers(-2, 2)
    perm = draw(st.permutations(range(dim)))
    p = [[GaussianRational(int(perm[i] == j)) for j in range(dim)] for i in range(dim)]
    lower = [[GaussianRational(1 if i == j else draw(small) if i > j else 0) for j in range(dim)] for i in range(dim)]
    upper = [[GaussianRational(1 if i == j else draw(small) if i < j else 0) for j in range(dim)] for i in range(dim)]
    return mat_mul(p, mat_mul(lower, upper))


@st.composite
def known_signature_forms(draw):
    """(form, (p, q)) with the form congruent to a block-diagonal D."""
    real = draw(st.booleans())
    entry = st.sampled_from(DIAGONAL).map(lambda v: ("d", GaussianRational(v)))
    off = st.tuples(PARTS, st.just(Fraction(0)) if real else PARTS).filter(any)
    pair = off.map(lambda reim: ("h", GaussianRational(*reim)))
    blocks = draw(st.lists(st.one_of(entry, pair), min_size=1, max_size=5))
    dim = sum(1 if kind == "d" else 2 for kind, _ in blocks)
    d = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    p = q = at = 0
    for kind, v in blocks:
        if kind == "d":
            d[at][at] = v
            p, q = p + (v.re > 0), q + (v.re < 0)
            at += 1
        else:
            d[at][at + 1], d[at + 1][at] = v, v.conjugate()
            p, q = p + 1, q + 1
            at += 2
    base = HermitianBiform(2, dim - 1, d)
    transform = draw(st.sampled_from(["none", "real", "gaussian"] if not real else ["none", "real"]))
    if transform == "real":
        base = congruence_transform(base, draw(real_invertible(dim)))
    elif transform == "gaussian":
        base = congruence_transform(base, random_invertible_matrix(dim, seed=draw(st.integers(0, 2**32))))
    return base, (p, q)


@settings(max_examples=200, deadline=None)
@given(known_signature_forms())
def test_signature_matches_construction(case):
    form, expected = case
    assert biform_signature(form) == expected
    terms = decompose(form)
    assert (sum(t.weight > 0 for t in terms), sum(t.weight < 0 for t in terms)) == expected
    assert recompose_squares(form.n_vars, form.half_degree, terms) == form


@st.composite
def zero_diagonal_forms(draw):
    """(form, (p, q)) for a scaled, permuted graph matrix with zero
    diagonal: the complete graph K_n (eigenvalues n - 1 and -1), the cycle
    C_n (2cos(2 pi k/n)) or i times the directed cycle (-2sin(2 pi k/n)).
    The sign of each eigenvalue is decided in integers."""
    kind = draw(st.sampled_from(["complete", "cycle", "directed"]))
    n = draw(st.integers(3, 7))
    scale = draw(st.sampled_from([Fraction(-2), Fraction(-1, 3), Fraction(1), Fraction(3, 2)]))
    perm = draw(st.permutations(range(n)))
    m = [[GaussianRational() for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if kind == "complete" and a != b:
                m[perm[a]][perm[b]] = GaussianRational(scale)
            elif kind == "cycle" and (b - a) % n in (1, n - 1):
                m[perm[a]][perm[b]] = GaussianRational(scale)
            elif kind == "directed" and (b - a) % n in (1, n - 1):
                m[perm[a]][perm[b]] = GaussianRational(0, scale if (b - a) % n == 1 else -scale)
    if kind == "complete":
        p, q = 1, n - 1
    elif kind == "cycle":
        p = sum(4 * k < n or 4 * k > 3 * n for k in range(n))
        q = sum(n < 4 * k < 3 * n for k in range(n))
    else:
        p = sum(n < 2 * k for k in range(n))
        q = sum(0 < 2 * k < n for k in range(n))
    if scale < 0:
        p, q = q, p
    return HermitianBiform(2, n - 1, m), (p, q)


@settings(max_examples=100, deadline=None)
@given(zero_diagonal_forms())
def test_signature_of_zero_diagonal_graph_matrices(case):
    form, expected = case
    assert biform_signature(form) == expected
    terms = decompose(form)
    assert (sum(t.weight > 0 for t in terms), sum(t.weight < 0 for t in terms)) == expected
    assert recompose_squares(form.n_vars, form.half_degree, terms) == form


def test_signature_of_the_zero_matrix():
    for d in range(4):
        assert biform_signature(zero_biform(2, d)) == (0, 0)
        assert decompose(zero_biform(2, d)) == []


def test_decompose_maps_positions_past_zero_rows():
    """Zero rows leave the kernel's matrix as they appear, so its positions
    shift; each square must still land on the input rows it came from."""
    z1, z2, z3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    # |z1 + z2|^2 + 2|z3|^2: row z2 vanishes at the first step, row z3 lives on
    form = biform_from_terms(3, 1, [(a, b, 1) for a in (z1, z2) for b in (z1, z2)] + [(z3, z3, 2)])
    assert [(t.weight, t.poly.terms) for t in decompose(form)] == [
        (1, {z1: GaussianRational(1), z2: GaussianRational(1)}),
        (2, {z3: GaussianRational(1)}),
    ]
    # |z2|^2 - |z4|^2 in 4 variables: zero rows stand first and in the middle
    z2, z4 = (0, 1, 0, 0), (0, 0, 0, 1)
    form = biform_from_terms(4, 1, [(z2, z2, 1), (z4, z4, -1)])
    assert [(t.weight, t.poly.terms) for t in decompose(form)] == [
        (1, {z2: GaussianRational(1)}),
        (-1, {z4: GaussianRational(1)}),
    ]


def random_zero_diagonal(dim, seed):
    """A symmetric integer matrix with zero diagonal, so that every first
    step is the 2x2 congruence."""
    rng = SplitMix64(seed)
    m = [[0] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            m[a][b] = m[b][a] = rng.choice([0, 0, 1, -1, 2, -3])
    return HermitianBiform(2, dim - 1, m)


# Zero diagonal, signature (3, 2); an elimination that adds row j to row i
# without also adding column j to column i reports (5, 0) here.
ZERO_DIAGONAL_3_2 = [[0, 2, 0, 1, 1], [2, 0, -3, -3, 2], [0, -3, 0, -1, 2], [1, -3, -1, 0, 1], [1, 2, 2, 1, 0]]


def test_signature_of_a_zero_diagonal_worked_value():
    form = HermitianBiform(2, 4, ZERO_DIAGONAL_3_2)
    assert biform_signature(form) == (3, 2)
    assert sorted(t.weight > 0 for t in decompose(form)) == [False] * 2 + [True] * 3


def test_signature_matches_descartes_count_of_charpoly():
    """Extra check through sympy's characteristic polynomial: a Hermitian
    matrix has only real eigenvalues, so Descartes' rule of signs counts
    the positive ones exactly, and those of p(-x) the negative ones."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def sign_changes(coeffs):
        signs = [c > 0 for c in coeffs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    forms = [HermitianBiform(2, 4, ZERO_DIAGONAL_3_2)]
    for seed in range(12):
        dim = 2 + seed % 4
        base = HermitianBiform(2, dim - 1, [[GaussianRational((i + seed) % 3 - 1 if i == j else 0) for j in range(dim)] for i in range(dim)])
        forms.append(congruence_transform(base, random_invertible_matrix(dim, seed=seed)))
        forms.append(random_zero_diagonal(3 + seed % 4, seed))
    for form in forms:
        m = sympy.Matrix([[sympy.Rational(z.re) + sympy.I * sympy.Rational(z.im) for z in row] for row in form.matrix])
        poly = sympy.Poly(sympy.expand(m.charpoly(x).as_expr()), x)
        assert all(c.is_real for c in poly.all_coeffs())
        p = sign_changes(poly.all_coeffs())
        q = sign_changes(sympy.Poly(poly.as_expr().subs(x, -x), x).all_coeffs())
        assert biform_signature(form) == (p, q)


def test_signature_of_a_purely_imaginary_worked_value():
    # i*(z1*conj(z2) - z2*conj(z1)): the matrix [[0, i], [-i, 0]], eigenvalues +-1
    i = GaussianRational(0, 1)
    form = biform_from_terms(2, 1, [((1, 0), (0, 1), i), ((0, 1), (1, 0), -i)])
    assert biform_signature(form) == (1, 1)
    terms = decompose(form)
    assert sorted(t.weight > 0 for t in terms) == [False, True]
    assert recompose_squares(2, 1, terms) == form
