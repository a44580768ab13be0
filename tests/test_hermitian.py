"""Tests for Hermitian biforms: rank, signature, norm products, and bounds."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from macaulay import hermitian
from macaulay.binom import shift_apply
from macaulay.cli import main
from macaulay.hermitian import (
    GaussianRational,
    HermitianBiform,
    SignedNorm,
    biform_from_squares,
    biform_from_terms,
    biform_rank,
    biform_signature,
    decompose,
    find_min_sos_exponent,
    format_biform,
    hermitian_report,
    is_sum_of_squares,
    multiply_norm_power,
    multiply_signed_norm,
    parse_biform,
    product_rank_interval,
    recompose_squares,
    sos_max_negative_part,
    sos_min_positive_part,
    sos_rank_interval,
    verify_ideal_containment,
    zero_biform,
)
from macaulay.oracle import random_hermitian_instance, sos_witness
from macaulay.poly import (
    RANK_PRIMES,
    GradedIdeal,
    HomogPoly,
    exact_rank,
    graded_piece_dim,
    monomial_poly,
    monomials_of_degree,
    rank_mod_prime,
    variable,
)
from references import biform_terms, congruence_transform, divide_norm_power, random_invertible_matrix

i = GaussianRational(0, 1)


def gauss(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_gaussian_rational_field_ops():
    a = gauss(Fraction(1, 2), 3)
    b = gauss(2, -1)
    assert a + b == gauss(Fraction(5, 2), 2)
    assert a * b == gauss(4, Fraction(11, 2))
    assert (a / b) * b == a
    assert a.conjugate().im == -3
    assert (a * a.conjugate()).is_real
    assert str(gauss(1, -2)) == "1-2i"
    assert str(gauss(0, 1)) == "1i"
    with pytest.raises(ZeroDivisionError):
        a / gauss(0)


def test_gaussian_rational_int_parts_stay_exact():
    a = GaussianRational(3, 4)
    b = GaussianRational(1, 2)
    q = a / b
    assert isinstance(q.re, Fraction) and q * b == a
    assert (a / 2) * 2 == a


def test_biform_from_terms_worked_values():
    b = biform_from_terms(2, 1, [((1, 0), (1, 0), 1)])
    assert b.matrix[0][0] == 1 and not b.matrix[1][1]

    signed = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    assert signed.matrix[0][0] == 1 and signed.matrix[1][1] == -1

    cross = biform_from_terms(2, 1, [((1, 0), (0, 1), 1), ((0, 1), (1, 0), 1)])
    assert biform_signature(cross) == (1, 1)


def test_biform_from_terms_rejects_bad_input():
    with pytest.raises(ValueError):
        biform_from_terms(2, 1, [((1, 0), (0, 1), 1)])  # not Hermitian
    with pytest.raises(ValueError):
        biform_from_terms(2, 1, [((2, 0), (1, 1), 1)])  # wrong degree
    with pytest.raises(ValueError):
        biform_from_terms(2, 1, [((1, 0), (1, 0), i)])  # imaginary diagonal


def test_construction_guards():
    for wrong in (HomogPoly.zero(2, 2), HomogPoly.zero(3, 1)):
        with pytest.raises(ValueError, match="square term has wrong variables or degree"):
            recompose_squares(2, 1, [(1, wrong)])
    with pytest.raises(ValueError, match="^matrix must be 2x2 for n=2, d=1$"):
        HermitianBiform(2, 1, [[1]])
    with pytest.raises(ValueError) as exc:
        biform_from_terms(2, 1, [((1, 0), (0, 1), 1)])
    assert str(exc.value) == "matrix is not Hermitian at (0,1): 1 vs conj(0)"
    assert divide_norm_power(biform_from_terms(2, 0, [((0, 0), (0, 0), 1)]), 1) is None


def test_recompose_squares_takes_a_generator():
    p = HomogPoly(2, 1, {(1, 0): gauss(1, 2), (0, 1): Fraction(1, 3)})
    q = HomogPoly(2, 1, {(0, 1): gauss(0, -1)})
    weighted = [(Fraction(2), p), (Fraction(-1), q)]
    assert recompose_squares(2, 1, iter(weighted)) == recompose_squares(2, 1, weighted)
    assert biform_signature(recompose_squares(2, 1, weighted)) == (1, 1)


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(gauss, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
              st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))),
)
REAL_WEIGHTS = st.sampled_from([1, -1, 3, Fraction(-3, 7), 0, Fraction(1), Fraction(-1)])
# (c, |c|^2): the square |c * p|^2 is |c|^2 * |p|^2
SCALES = [(1, 1), (-1, 1), (i, 1), (2, 4), (Fraction(1, 3), Fraction(1, 9)), (gauss(1, 1), 2)]


def _polys(n, d, nonzero=False):
    basis = monomials_of_degree(n, d)
    terms = st.dictionaries(st.sampled_from(basis), COEFFS.filter(bool), min_size=int(nonzero), max_size=len(basis))
    return terms.map(lambda t: HomogPoly(n, d, t))


@st.composite
def square_families(draw):
    """(n, d, weighted, kind): real weights on a pool of polynomials, zero and
    repeated ones included, plus for the kinds "cancelling" and "not
    cancelling" a non-real weight on a nonzero polynomial, once with a
    second square whose imaginary part cancels it and once alone."""
    n, d = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    pool = draw(st.lists(_polys(n, d), min_size=1, max_size=3))
    weighted = [(draw(REAL_WEIGHTS), draw(st.sampled_from(pool))) for _ in range(draw(st.integers(0, 4)))]
    kind = draw(st.sampled_from(["real", "cancelling", "not cancelling"]))
    if kind != "real":
        p = draw(_polys(n, d, nonzero=True))
        b = draw(st.sampled_from([1, -2, Fraction(3, 5)]))
        weighted.insert(draw(st.integers(0, len(weighted))), (gauss(draw(REAL_WEIGHTS), b), p))
        if kind == "cancelling":
            c, norm = draw(st.sampled_from(SCALES))
            weighted.append((gauss(draw(REAL_WEIGHTS), -b / norm), c * p))
    return n, d, weighted, kind


def _reference_recompose(n, d, weighted):
    """Sum weight * c_alpha * conj(c_beta) as GaussianRationals into a dense
    matrix and build it through the public constructor."""
    index = {m: k for k, m in enumerate(monomials_of_degree(n, d))}
    matrix = [[GaussianRational() for _ in index] for _ in index]
    for weight, p in weighted:
        for alpha, ca in p.terms.items():
            for beta, cb in p.terms.items():
                cell = GaussianRational.of(weight) * ca * GaussianRational.of(cb).conjugate()
                matrix[index[alpha]][index[beta]] += cell
    return HermitianBiform(n, d, matrix)


@given(square_families())
@settings(max_examples=200, deadline=None)
def test_recompose_squares_matches_a_rational_reference(family):
    n, d, weighted, kind = family
    try:
        expected = _reference_recompose(n, d, weighted)
    except ValueError as exc:
        assert kind == "not cancelling"
        with pytest.raises(ValueError) as got:
            recompose_squares(n, d, weighted)
        assert str(got.value) == str(exc)
        return
    assert kind != "not cancelling"
    assert recompose_squares(n, d, weighted) == expected


def test_recompose_squares_worked_values():
    # 3 |z1/2 + i*z2|^2 - 1/2 |z2/3|^2: entries 3/4, -3i/2, 3i/2 and 3 - 1/18 = 53/18
    p = HomogPoly(2, 1, {(1, 0): Fraction(1, 2), (0, 1): i})
    q = HomogPoly(2, 1, {(0, 1): Fraction(1, 3)})
    form = recompose_squares(2, 1, [(3, p), (Fraction(-1, 2), q)])
    assert form.matrix == (
        (gauss(Fraction(3, 4)), gauss(0, Fraction(-3, 2))),
        (gauss(0, Fraction(3, 2)), gauss(Fraction(53, 18))),
    )
    assert (form.den, form.re, form.im) == (36, ((27, 0), (0, 106)), ((0, -54), (54, 0)))
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian at \(0,0\): 1/4i vs conj\(1/4i\)$"):
        recompose_squares(2, 1, [(i, p)])
    assert recompose_squares(2, 1, [(i, p), (-i, p), (2, HomogPoly.zero(2, 1))]) == zero_biform(2, 1)


def test_biform_rank_worked_values():
    assert biform_rank(zero_biform(2, 1)) == 0
    diag = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    assert biform_rank(diag) == 2
    product = multiply_signed_norm(biform_from_terms(2, 1, [((1, 0), (1, 0), 1)]), (2, 0))
    assert [row[k] for k, row in enumerate(product.matrix)] == [1, 1, 0]
    assert biform_rank(product) == 2


def unlucky_form() -> HermitianBiform:
    """(p+2)|z1|^2 + (1+i) z1 conj(z2) + (1-i) z2 conj(z1) + |z2|^2 with p =
    RANK_PRIMES[0]: determinant p, so rank 2 over Q(i) and rank 1 modulo p."""
    p = RANK_PRIMES[0]
    return biform_from_terms(2, 1, [((1, 0), (1, 0), p + 2), ((1, 0), (0, 1), GaussianRational(1, 1)),
                                    ((0, 1), (1, 0), GaussianRational(1, -1)), ((0, 1), (0, 1), 1)])


def rank_one_form() -> HermitianBiform:
    """|z1 - i z2|^2, whose matrix is [[1, i], [-i, 1]]."""
    return biform_from_squares(2, 1, [HomogPoly(2, 1, {(1, 0): GaussianRational(1), (0, 1): -i})])


def biform_rows(form):
    return [{j: (a, b) for j, (a, b) in enumerate(zip(ra, ia)) if a or b} for ra, ia in zip(form.re, form.im)]


def test_a_full_modular_rank_certifies_the_rank(monkeypatch):
    exact_calls = []
    true_exact_rank = hermitian.exact_rank
    monkeypatch.setattr(hermitian, "exact_rank", lambda rows: exact_calls.append(rows) or true_exact_rank(rows))
    imaginary = biform_from_terms(2, 1, [((1, 0), (0, 1), GaussianRational(0, 1)),
                                         ((0, 1), (1, 0), GaussianRational(0, -1))])
    assert biform_rank(imaginary) == 2
    assert exact_calls == []
    # a rank-deficient form never reaches the row count modulo p: Bareiss answers
    form = rank_one_form()
    assert (form.den, form.re, form.im) == (1, ((1, 0), (0, 1)), ((0, 1), (-1, 0)))
    assert rank_mod_prime(biform_rows(form), RANK_PRIMES[0]) == 1
    assert biform_rank(form) == 1
    assert len(exact_calls) == 1


def test_an_unlucky_prime_falls_back_to_bareiss(monkeypatch, tmp_path):
    form = unlucky_form()
    assert (form.den, form.re[0][0] * form.re[1][1] - form.re[0][1] ** 2 - form.im[0][1] ** 2) == (1, RANK_PRIMES[0])
    assert rank_mod_prime(biform_rows(form), RANK_PRIMES[0]) == 1
    exact_calls = []
    true_exact_rank = hermitian.exact_rank
    monkeypatch.setattr(hermitian, "exact_rank", lambda rows: exact_calls.append(rows) or true_exact_rank(rows))
    assert biform_rank(form) == 2
    assert len(exact_calls) == 1
    path = tmp_path / "unlucky.json"
    path.write_text(format_biform(form))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "structured", "hermitian", str(path)]) == 0
    outputs = json.loads(out.getvalue())["outputs"]
    assert (outputs["rank"], outputs["signature"]) == (2, {"p": 2, "q": 0})


def test_a_count_below_the_row_count_skips_the_modular_rank(monkeypatch):
    """|z1 - i z2|^2 has p + q = 1 of 2 rows: given that count,
    ``biform_rank`` goes straight to ``exact_rank``, and so does the
    report for the form, whose certificate runs on the product alone.  A
    count that reaches the row count still tries the certificate first."""
    def no_modular_rank(rows, p):
        raise AssertionError("rank_mod_prime ran")

    exact_calls = recorded_exact_ranks(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(hermitian, "rank_mod_prime", no_modular_rank)
        assert [biform_rank(rank_one_form(), _count=c) for c in (0, 1)] == [1, 1]
    assert exact_calls == [2, 2]
    modular_calls = []
    true_rank_mod_prime = hermitian.rank_mod_prime
    monkeypatch.setattr(hermitian, "rank_mod_prime", lambda rows, p: modular_calls.append(len(rows)) or true_rank_mod_prime(rows, p))
    exact_calls.clear()
    imaginary = biform_from_terms(2, 1, [((1, 0), (0, 1), i), ((0, 1), (1, 0), -i)])
    assert [biform_rank(imaginary, _count=c) for c in (2, 3)] == [2, 2]
    assert (modular_calls, exact_calls) == ([2, 2], [])
    modular_calls.clear()
    outputs, _ = hermitian_report(rank_one_form(), (2, 0), 1)
    assert (outputs["rank"], outputs["product_rank"]) == (1, 2)
    assert (modular_calls, exact_calls) == ([3], [2])


@st.composite
def gaussian_square_families(draw):
    """A non-real sum of k <= dim squares of mixed sign, in 2 or 3
    variables and of degree 1 or 2: full rank or rank-deficient."""
    n, d = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    k = draw(st.integers(1, math.comb(n - 1 + d, d)))
    squares = draw(st.lists(_polys(n, d, nonzero=True), min_size=k, max_size=k))
    split = draw(st.integers(0, k))
    form = biform_from_squares(n, d, squares[:split], squares[split:])
    assume(form.im is not None)
    return form


@given(gaussian_square_families())
@example(rank_one_form())
@example(unlucky_form())
@settings(max_examples=80, deadline=None)
def test_the_count_only_picks_the_path(form):
    """Whatever count the caller passes, right or wrong, the rank is
    the one ``exact_rank`` gives."""
    rank = exact_biform_rank(form)
    assert [biform_rank(form, _count=c) for c in range(form.dim + 2)] == [rank] * (form.dim + 2)


def test_biform_signature_worked_values():
    diag = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    assert biform_signature(diag) == (1, 1)
    offd = biform_from_terms(2, 1, [((1, 0), (0, 1), 1), ((0, 1), (1, 0), 1)])
    assert biform_signature(offd) == (1, 1)
    ident = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1)])
    assert biform_signature(ident) == (2, 0)


def test_signature_of_zero_diagonal_matrices():
    # [[0, i], [-i, 0]] has eigenvalues +-1
    b = biform_from_terms(2, 1, [((1, 0), (0, 1), i), ((0, 1), (1, 0), -i)])
    assert biform_signature(b) == (1, 1)
    # adjacency matrix of the triangle: eigenvalues 2, -1, -1
    pairs = [((2, 0), (1, 1)), ((2, 0), (0, 2)), ((1, 1), (0, 2))]
    terms = []
    for a, c in pairs:
        terms += [(a, c, 1), (c, a, 1)]
    tri = biform_from_terms(2, 2, terms)
    assert biform_signature(tri) == (1, 2)


def test_signature_rank_consistency_with_elimination():
    for seed in range(30):
        form = random_hermitian_instance(2 + seed % 3, 1 + seed % 2, seed=seed * 7 + 1)
        sig = biform_signature(form)
        assert sig.p + sig.q == biform_rank(form)


def echelon_squares(n: int, d: int, count: int, rng: random.Random) -> list[HomogPoly]:
    """``count`` Gaussian polynomials in echelon form over a shuffled basis of
    the degree-d monomials, hence linearly independent."""
    basis = list(monomials_of_degree(n, d))
    rng.shuffle(basis)
    polys = []
    for lead in range(count):
        terms = {basis[lead]: GaussianRational(rng.choice((1, -1, 2, -3)), rng.randint(-3, 3))}
        for mono in basis[lead + 1:]:
            terms[mono] = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        polys.append(HomogPoly(n, d, terms))
    return polys


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_rank_equals_p_plus_q_on_forms_and_their_products(n, d):
    """Row elimination and the congruence kernel agree on random forms and on
    sums of independent squares, and on their products with every signed
    norm, up to the 20 x 20 products of (n, d) = (4, 2)."""
    rng = random.Random(10 * n + d)
    dim = len(monomials_of_degree(n, d))
    forms = [random_hermitian_instance(n, d, seed=rng.randrange(2**32)) for _ in range(2)]
    for count in (max(1, dim // 2), dim):
        squares = echelon_squares(n, d, count, rng)
        split = rng.randint(0, count)
        form = biform_from_squares(n, d, squares[:split], squares[split:])
        assert biform_signature(form) == (split, count - split)
        forms.append(form)
    for form in forms:
        for s in range(n + 1):
            for f in (form, multiply_signed_norm(form, (s, n - s))):
                assert biform_rank(f) == biform_signature(f).rank


def test_decompose_worked_values():
    diag = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    terms = decompose(diag)
    assert [(t.weight, t.poly.terms) for t in terms] == [
        (Fraction(1), {(1, 0): GaussianRational(1)}),
        (Fraction(-1), {(0, 1): GaussianRational(1)}),
    ]
    assert decompose(zero_biform(2, 2)) == []


def test_decompose_folds_perfect_square_weights():
    quad = biform_from_terms(2, 1, [((1, 0), (1, 0), 4)])
    ((w, p),) = decompose(quad)
    assert w == 1 and p.terms == {(1, 0): GaussianRational(2)}
    # 3 is not a sum of two rational squares, so the weight must survive
    triple = biform_from_terms(2, 1, [((1, 0), (1, 0), 3)])
    ((w, p),) = decompose(triple)
    assert w == 3 and p.terms == {(1, 0): GaussianRational(1)}


def test_decompose_recompose_round_trip():
    for seed in range(25):
        form = random_hermitian_instance(2 + seed % 3, 1 + seed % 2, seed=seed * 13 + 5)
        terms = decompose(form)
        assert recompose_squares(form.n_vars, form.half_degree, terms) == form
        sig = biform_signature(form)
        assert sum(1 for t in terms if t.weight > 0) == sig.p
        assert sum(1 for t in terms if t.weight < 0) == sig.q


_DIAGONAL_3 = biform_from_terms(3, 2, [
    ((2, 0, 0), (2, 0, 0), 1), ((1, 1, 0), (1, 1, 0), Fraction(-9, 5)), ((0, 2, 0), (0, 2, 0), 1), ((0, 0, 2), (0, 0, 2), 1)
])


@pytest.mark.parametrize("form, signature", [
    # diagonal, with content 2 left on the rows that stay
    (biform_from_terms(3, 1, [((1, 0, 0), (1, 0, 0), 2), ((0, 1, 0), (0, 1, 0), -4), ((0, 0, 1), (0, 0, 1), 6)]), (2, 1)),
    (_DIAGONAL_3, (3, 1)),
    (multiply_signed_norm(multiply_norm_power(_DIAGONAL_3, 2), (2, 1)), None),
    # the only coupling is imaginary: [[1, 2i], [-2i, 1]] has determinant -3
    (biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((1, 0), (0, 1), 2 * i), ((0, 1), (1, 0), -2 * i), ((0, 1), (0, 1), 1)]), (1, 1)),
    # an isolated z1 z2 block pivots first, then the coupled [[5, 4i], [-4i, 5]]
    (biform_from_terms(2, 2, [((2, 0), (2, 0), 5), ((1, 1), (1, 1), 3), ((2, 0), (0, 2), 4 * i), ((0, 2), (2, 0), -4 * i),
                              ((0, 2), (0, 2), 5)]),
     (3, 0)),
    # the coupled [[1, 1 + i], [1 - i, -2]] pivots first and leaves the isolated z1 z2 behind
    (biform_from_terms(2, 2, [((2, 0), (2, 0), 1), ((1, 1), (1, 1), 7), ((2, 0), (0, 2), gauss(1, 1)),
                              ((0, 2), (2, 0), gauss(1, -1)), ((0, 2), (0, 2), -2)]), (2, 1)),
])
def test_decompose_round_trips_on_diagonal_and_block_forms(form, signature):
    """A step whose w vanishes off its pivot keeps the rest of the matrix as it stands."""
    terms = decompose(form)
    assert recompose_squares(form.n_vars, form.half_degree, terms) == form
    if signature is None:  # a diagonal form: the signs of its diagonal
        diagonal = [form.re[k][k] for k in range(form.dim)]
        signature = (sum(v > 0 for v in diagonal), sum(v < 0 for v in diagonal))
    assert biform_signature(form) == signature
    assert (sum(t.weight > 0 for t in terms), sum(t.weight < 0 for t in terms)) == signature


def test_signature_invariant_under_congruence():
    for seed in range(20):
        form = random_hermitian_instance(2, 1 + seed % 3, seed=seed * 11 + 3)
        c = random_invertible_matrix(form.dim, seed=seed * 17 + 2)
        assert biform_signature(congruence_transform(form, c)) == biform_signature(form)


def test_signature_additive_under_direct_sum():
    a = random_hermitian_instance(2, 1, seed=11)   # dim 2
    b = random_hermitian_instance(2, 2, seed=12)   # dim 3
    dim = a.dim + b.dim
    rows = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for r in range(a.dim):
        for c in range(a.dim):
            rows[r][c] = a.matrix[r][c]
    for r in range(b.dim):
        for c in range(b.dim):
            rows[a.dim + r][a.dim + c] = b.matrix[r][c]
    block = HermitianBiform(2, 4, rows)  # dim 5 basis hosts the block matrix
    sa, sb, sblock = biform_signature(a), biform_signature(b), biform_signature(block)
    assert sblock == (sa.p + sb.p, sa.q + sb.q)


def _gaussian_instances(shapes, seed):
    """For each (n, d), the first random_hermitian_instance from ``seed`` on
    with a non-real entry and a non-integer real part."""
    for n, d in shapes:
        while True:
            form = random_hermitian_instance(n, d, seed=seed)
            entries = [v for row in form.matrix for v in row]
            seed += 1
            if any(v.im for v in entries) and any(Fraction(v.re).denominator > 1 for v in entries):
                yield form
                break


def _signed_norm_product_by_terms(form, s):
    """form * (|z_1|^2 + ... + |z_s|^2 - ... - |z_n|^2), one term at a time:
    each term c * z^alpha * conj(z)^beta and each j add +-c at
    (alpha + e_j, beta + e_j)."""
    n = form.n_vars
    terms = []
    for alpha, beta, c in biform_terms(form):
        for j in range(n):
            e_j = tuple(int(k == j) for k in range(n))
            up_alpha = tuple(a + e for a, e in zip(alpha, e_j))
            up_beta = tuple(b + e for b, e in zip(beta, e_j))
            terms.append((up_alpha, up_beta, c if j < s else -c))
    return biform_from_terms(n, form.half_degree + 1, terms)


def test_multiply_signed_norm_matches_term_expansion():
    # (2, 3), (3, 3) and (4, 2) are the biform-report shapes past d = 1
    shapes = [(n, 1) for n in (2, 3, 4)] + [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]
    forms = list(_gaussian_instances(shapes, seed=7))
    real = HermitianBiform(3, 3, [[v.re for v in row] for row in forms[shapes.index((3, 3))].matrix])
    assert real.im is None and not real.is_zero()
    forms += [real, zero_biform(3, 2)]
    for form in forms:
        n = form.n_vars
        for s in range(n + 1):
            assert multiply_signed_norm(form, (s, n - s)) == _signed_norm_product_by_terms(form, s)


def test_multiply_signed_norm_worked_values():
    b = biform_from_terms(2, 1, [((1, 0), (1, 0), 1)])
    assert biform_rank(multiply_signed_norm(b, SignedNorm(2, 0))) == 2
    assert multiply_signed_norm(zero_biform(2, 1), (2, 0)).is_zero()
    mixed = multiply_signed_norm(b, (1, 1))
    assert biform_signature(mixed) == (1, 1)
    with pytest.raises(ValueError):
        multiply_signed_norm(b, (2, 1))


def test_multiply_norm_power_worked_values():
    b = biform_from_terms(2, 1, [((1, 0), (1, 0), 1)])
    assert biform_rank(multiply_norm_power(b, 1)) == 2
    assert multiply_norm_power(zero_biform(2, 1), 3).is_zero()
    signed = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    product = multiply_norm_power(signed, 1)
    assert biform_signature(product) == (1, 1)
    assert biform_rank(product) == 2


def test_divide_norm_power_round_trip():
    for seed in range(10):
        n = 2 + seed % 2
        form = random_hermitian_instance(n, 1 + seed % 2, seed=seed * 23 + 9)
        for power in (1, 2):
            product = multiply_norm_power(form, power)
            assert divide_norm_power(product, power) == form


def test_divide_norm_power_round_trips_gaussian_forms_with_denominators():
    for form in _gaussian_instances([(2, 1), (3, 1), (2, 2), (3, 2), (3, 3)], seed=3):
        for power in (1, 2):
            assert divide_norm_power(multiply_norm_power(form, power), power) == form


def test_divide_norm_power_refuses_a_perturbed_conjugate_pair():
    product = multiply_norm_power(next(_gaussian_instances([(3, 1)], seed=77)), 1)
    assert divide_norm_power(product, 1) is not None
    for r, c in ((0, 1), (product.dim - 2, product.dim - 1)):
        rows = [list(row) for row in product.matrix]
        rows[r][c] += gauss(Fraction(1, 3), -1)
        rows[c][r] += gauss(Fraction(1, 3), 1)
        assert divide_norm_power(HermitianBiform(3, 2, rows), 1) is None


def test_divide_norm_power_detects_non_divisible():
    quartic = biform_from_terms(2, 2, [((2, 0), (2, 0), 1)])  # |z1|^4 alone
    assert divide_norm_power(quartic, 1) is None


def test_product_rank_interval_worked_values():
    assert product_rank_interval(3, 4) == (6, 12)
    assert product_rank_interval(1, 2) == (2, 2)
    with pytest.raises(ValueError):
        product_rank_interval(0, 3)


def test_product_rank_interval_closed_form():
    for n in range(2, 7):
        for r in range(1, n):
            assert product_rank_interval(r, n) == (r * n - r * (r - 1), r * n)
    assert product_rank_interval(1, 5) == (5, 5)


def test_sos_min_positive_part_worked_values():
    assert sos_min_positive_part(3, 4, 1) == Fraction(9, 4)
    assert sos_min_positive_part(1, 2, 1) == 1
    assert sos_min_positive_part(0, 3, 2) == 0


def test_sos_max_negative_part_worked_values():
    assert sos_max_negative_part(1, 2, 1) == 0
    assert sos_max_negative_part(3, 4, 1) == 3
    # independent recomputation straight from the shift operator
    expected = 1 * 6 - 1 - shift_apply(1, 2, -1, 1)
    assert sos_max_negative_part(1, 3, 2) == expected
    # the two subscript conventions agree at l = 1 and may differ beyond
    assert sos_max_negative_part(3, 4, 1, alternate=True) == 3
    alt = 1 * 6 - 1 - shift_apply(1, 2, -2, 1)
    assert sos_max_negative_part(1, 3, 2, alternate=True) == alt


def test_sos_rank_interval_worked_values():
    assert sos_rank_interval(1, 0, 2, 1) == (2, 2)
    low, high = sos_rank_interval(2, 1, 3, 1)
    assert low == shift_apply(3, 2, 0, 1) - 3 and high == 6
    assert sos_rank_interval(0, 1, 3, 1)[1] == 0


def test_is_sum_of_squares_worked_values():
    psd = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1)])
    assert is_sum_of_squares(psd)
    indef = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    assert not is_sum_of_squares(indef)
    assert not is_sum_of_squares(multiply_norm_power(indef, 1))


def test_find_min_sos_exponent_on_split_form():
    # |z1|^2 - |z2|^2 is negative at (0, 1), so no norm power can help
    indef = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    assert find_min_sos_exponent(indef, 5) is None
    psd = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1)])
    assert find_min_sos_exponent(psd, 3) == 1


def _diag_form(weights):
    # diagonal biform on the degree-2 monomials of 2 variables
    basis = [(2, 0), (1, 1), (0, 2)]
    return biform_from_terms(2, 2, [(m, m, w) for m, w in zip(basis, weights)])


def test_find_min_sos_exponent_matches_convolution_oracle():
    # For diagonal M in two variables the product with ||z||^(2l) stays
    # diagonal, with entries the binomial convolution of the weights, so
    # positive semidefiniteness is just nonnegativity of those sums.
    from math import comb

    weights = [Fraction(5, 4), Fraction(-3, 2), Fraction(5, 4)]
    expected = None
    for l in range(1, 9):
        entries = []
        for g1 in range(l + 3):
            total = sum(comb(l, g1 - k) * weights[2 - k] for k in range(3) if 0 <= g1 - k <= l)
            entries.append(total)
        if all(e >= 0 for e in entries):
            expected = l
            break
    assert expected == 3
    assert find_min_sos_exponent(_diag_form(weights), 8) == expected


def test_sos_persists_under_extra_norm_factors():
    form = _diag_form([Fraction(3, 2), Fraction(-1), Fraction(3, 2)])
    l = find_min_sos_exponent(form, 6)
    assert l == 1
    assert is_sum_of_squares(multiply_norm_power(form, l + 1))


def test_verify_product_rank_bounds():
    b = biform_from_terms(2, 1, [((1, 0), (1, 0), 1)])
    outputs, verdicts = hermitian_report(b, (2, 0), 1)
    assert (outputs["product_rank"], outputs["product_rank_interval"]) == (2, [2, 2])
    assert verdicts["product_rank_bounds"] is True
    # the zero form has no interval: no product is built and every verdict is None
    outputs, verdicts = hermitian_report(zero_biform(2, 1), (2, 0), 1)
    assert "product_rank" not in outputs
    assert set(verdicts.values()) == {None}
    for seed in range(25):
        n = 2 + seed % 3
        form = random_hermitian_instance(n, 1 + seed % 2, seed=seed * 29 + 15)
        if form.is_zero():
            continue
        for s in range(n + 1):
            assert hermitian_report(form, (s, n - s), 1)[1]["product_rank_bounds"] is True


def koszul_form() -> HermitianBiform:
    """|z1 g|^2 + |z2 g|^2 with g = z1 + i z2: rank r = 2, and r*n = 4 is
    the product's row count, but z2 * (z1 g) = z1 * (z2 g), so no product
    by a signed norm reaches rank r*n."""
    g = HomogPoly(2, 1, {(1, 0): GaussianRational(1), (0, 1): i})
    return biform_from_squares(2, 2, [monomial_poly((1, 0)) * g, monomial_poly((0, 1)) * g])


def exact_biform_rank(form: HermitianBiform) -> int:
    """The rank from ``exact_rank`` alone, with no modular certificate."""
    if form.im is None:
        return exact_rank([{j: a for j, a in enumerate(ra) if a} for ra in form.re])
    return exact_rank(biform_rows(form))


def recorded_exact_ranks(monkeypatch) -> list[int]:
    """The row count of every matrix that ``biform_rank`` hands to
    ``exact_rank`` from now on."""
    rows_seen = []
    true_exact_rank = hermitian.exact_rank
    monkeypatch.setattr(hermitian, "exact_rank", lambda rows: rows_seen.append(len(rows)) or true_exact_rank(rows))
    return rows_seen


def recorded_signatures(monkeypatch) -> list[int]:
    """The dimension of every matrix that ``hermitian_report`` hands to
    ``biform_signature`` from now on."""
    dims = []
    true_signature = hermitian.biform_signature
    monkeypatch.setattr(hermitian, "biform_signature", lambda form: dims.append(form.dim) or true_signature(form))
    return dims


@st.composite
def independent_square_families(draw):
    """(n, form): a sum of k <= dim'/n squares of mixed sign in n variables,
    dim' the product's basis size, so that r*n never passes the row count."""
    n, d = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    k = draw(st.integers(1, math.comb(n + d, d + 1) // n))
    squares = draw(st.lists(_polys(n, d, nonzero=True), min_size=k, max_size=k))
    split = draw(st.integers(0, k))
    return n, biform_from_squares(n, d, squares[:split], squares[split:])


@given(independent_square_families())
@example((2, biform_from_squares(2, 2, [monomial_poly((2, 0))], [monomial_poly((0, 2))])))
@example((2, koszul_form()))
@settings(max_examples=60, deadline=None)
def test_the_product_certificate_matches_a_full_elimination(family):
    """At every (s, t) and l = 1, the product rank and the power's rank
    and sum-of-squares verdict equal those of an ``exact_rank`` of the
    product and a congruence pass over the built power."""
    n, form = family
    if form.is_zero():
        return
    power = biform_signature(multiply_norm_power(form, 1))
    for s in range(n + 1):
        outputs, _ = hermitian_report(form, (s, n - s), 1)
        product_rank = exact_biform_rank(multiply_signed_norm(form, (s, n - s)))
        assert (outputs["product_rank"], outputs["norm_power_rank"], outputs["norm_power_is_sum_of_squares"]) == (
            product_rank, power.rank, power.q == 0)


@pytest.mark.parametrize("norm", [(2, 0), (1, 1), (0, 2)])
@pytest.mark.parametrize("minus, power", [([], (4, 0)), ([monomial_poly((0, 2))], (2, 2))])
def test_a_product_of_rank_r_times_n_gives_the_power_signature_of_the_form(monkeypatch, norm, minus, power):
    """|z1^2|^2 +- |z2^2|^2: the products have rank r*n = 4 at every norm,
    so the l = 1 power, (|z1^3|^2 + |z1^2 z2|^2) +- (|z1 z2^2|^2 + |z2^3|^2),
    has signature (p*n, q*n) with no congruence pass over it."""
    plus = [monomial_poly((2, 0))] + ([] if minus else [monomial_poly((0, 2))])
    form = biform_from_squares(2, 2, plus, minus)
    assert biform_signature(multiply_norm_power(form, 1)) == power
    dims = recorded_signatures(monkeypatch)
    outputs, _ = hermitian_report(form, norm, 1)
    assert (outputs["product_rank"], outputs["norm_power_rank"]) == (4, 4)
    assert outputs["norm_power_is_sum_of_squares"] is (power[1] == 0)
    assert dims == [form.dim]


def test_the_power_signature_is_read_off_the_form_at_l_1_only(monkeypatch):
    """(|z1^2|^2 + |z2^2|^2) ||z||^4 = |z1^4|^2 + 2|z1^3 z2|^2 + 2|z1^2 z2^2|^2
    + 2|z1 z2^3|^2 + |z2^4|^2 has rank 5, not the p*n = 4 of l = 1."""
    form = biform_from_squares(2, 2, [monomial_poly((2, 0)), monomial_poly((0, 2))])
    dims = recorded_signatures(monkeypatch)
    outputs, _ = hermitian_report(form, (2, 0), 2)
    assert (outputs["product_rank"], outputs["norm_power_rank"]) == (4, 5)
    assert dims == [form.dim, 5]


def test_a_product_short_of_r_times_n_takes_the_full_path(monkeypatch):
    """The Koszul form's products fall short of r*n = 4, so Bareiss ranks
    them and the power gets its congruence pass: rank 3 at (2, 0) and 2
    at (1, 1), and the power |z1^2 g|^2 + 2|z1 z2 g|^2 + |z2^2 g|^2 has
    rank 3."""
    form = koszul_form()
    assert biform_signature(form) == (2, 0) and product_rank_interval(2, 2) == (2, 4)
    exact_calls = recorded_exact_ranks(monkeypatch)
    dims = recorded_signatures(monkeypatch)
    for norm, product_rank in (((2, 0), 3), ((1, 1), 2)):
        exact_calls.clear()
        dims.clear()
        outputs, _ = hermitian_report(form, norm, 1)
        assert (outputs["product_rank"], outputs["norm_power_rank"]) == (product_rank, 3)
        assert outputs["norm_power_is_sum_of_squares"] is True
        assert exact_calls == [3, 4]
        assert dims == [3, 4]


def test_a_modular_rank_that_reaches_the_bound_certifies_the_product(monkeypatch):
    """|z1 - i z2|^2 times |z1|^2 - |z2|^2 has rank r*n = 2 in 3 rows: the
    modular rank proves it under the bound, and without it Bareiss runs.
    In the report, only the form's own rank 1 of 2 rows reaches Bareiss."""
    exact_calls = recorded_exact_ranks(monkeypatch)
    product = multiply_signed_norm(rank_one_form(), (1, 1))
    assert (product.dim, biform_rank(product, 2)) == (3, 2)
    assert exact_calls == []
    assert biform_rank(product, 3) == biform_rank(product) == 2
    assert exact_calls == [3, 3]
    exact_calls.clear()
    outputs, _ = hermitian_report(rank_one_form(), (1, 1), 1)
    assert (outputs["product_rank"], outputs["norm_power_rank"]) == (2, 2)
    assert exact_calls == [2]


@pytest.mark.parametrize("form", [zero_biform(2, 1), biform_from_terms(2, 1, [((1, 0), (1, 0), 1)])])
@pytest.mark.parametrize("norm", [(3, -1), (-1, 3), (1, 0), (2, 1)])
def test_hermitian_report_refuses_a_bad_norm_in_the_words_of_the_product(form, norm):
    """The library names no command-line flag: a bad (s, t) is refused
    as ``multiply_signed_norm`` refuses it, for the zero form too."""
    with pytest.raises(ValueError) as refused:
        multiply_signed_norm(form, norm)
    with pytest.raises(ValueError) as exc:
        hermitian_report(form, norm, 1)
    assert "--" not in str(exc.value)
    assert str(exc.value) == str(refused.value) == f"signed norm ({norm[0]},{norm[1]}) does not match 2 variables"


def test_verify_ideal_containment_positive_only():
    z1, z2 = variable(0, 2), variable(1, 2)
    # all degree-2 "words" z_i * z_j witness (|z1|^2 + |z2|^2) * ||z||^2
    words = [z1 * z1, z1 * z2, z2 * z1, z2 * z2]
    assert verify_ideal_containment([z1, z2], [], words, 1)


def test_verify_ideal_containment_mixed_signs(monkeypatch):
    half = Fraction(1, 2)
    c = GaussianRational(half, half)  # |c|^2 == 1/2
    sq1 = monomial_poly((2, 0))
    sq2 = monomial_poly((0, 2))
    cross = monomial_poly((1, 1))
    m_plus = [sq1, c * sq1, sq2, c * sq2]
    m_minus = [cross]
    h = [
        monomial_poly((3, 0)),
        c * monomial_poly((3, 0)),
        c * monomial_poly((2, 1)),
        c * monomial_poly((1, 2)),
        monomial_poly((0, 3)),
        c * monomial_poly((0, 3)),
    ]
    calls = []
    monkeypatch.setattr(hermitian, "graded_piece_dim", lambda *args: calls.append(args) or graded_piece_dim(*args))
    assert verify_ideal_containment(m_plus, m_minus, h, 1)
    # one piece for m_plus and one per containment: m_minus's own piece adds nothing
    assert len(calls) == 3


def test_modular_mode_agrees_with_exact_on_gaussian_ideals():
    # the ideals that verify_ideal_containment compares in the mixed-signs case
    c = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    sq1, sq2, cross = monomial_poly((2, 0)), monomial_poly((0, 2)), monomial_poly((1, 1))
    m_plus = [sq1, c * sq1, sq2, c * sq2]
    h = [monomial_poly((3, 0)), c * monomial_poly((3, 0)), c * monomial_poly((2, 1)),
         c * monomial_poly((1, 2)), monomial_poly((0, 3)), c * monomial_poly((0, 3))]
    for gens in (m_plus, [cross], m_plus + [cross], m_plus + h):
        ideal = GradedIdeal(2, tuple(gens))
        for d in range(1, 5):
            exact = graded_piece_dim(ideal, d)
            assert graded_piece_dim(ideal, d, mode="modular-checked") == exact


def test_verify_ideal_containment_rejects_bad_witness():
    z1, z2 = variable(0, 2), variable(1, 2)
    with pytest.raises(ValueError):
        verify_ideal_containment([z1, z2], [], [z1 * z1], 1)


@pytest.mark.parametrize("witness", [
    [monomial_poly((1, 0))],  # degree 1, not d + l = 2
    [monomial_poly((2, 0, 0))],  # 3 variables, not 2
])
def test_verify_ideal_containment_refuses_a_misshapen_witness_before_any_product(monkeypatch, witness):
    z1, z2 = variable(0, 2), variable(1, 2)
    monkeypatch.setattr(hermitian, "multiply_signed_norm", lambda *args: pytest.fail("built a product"))
    with pytest.raises(ValueError, match="wrong variables or degree"):
        verify_ideal_containment([z1, z2], [], witness, 1)


def test_no_witness_exists_for_non_psd_product():
    # sum/difference family whose norm product turns out indefinite: no
    # list of squared norms can ever certify it
    plus = [
        HomogPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}),
        HomogPoly(2, 2, {(1, 1): Fraction(2)}),
    ]
    minus = [HomogPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})]
    base = biform_from_squares(2, 2, plus, minus)
    product = multiply_norm_power(base, 1)
    assert biform_signature(product).q > 0
    assert sos_witness(product) is None
    with pytest.raises(ValueError):
        verify_ideal_containment(plus, minus, [], 1)


def test_biform_serialization_round_trip():
    form = random_hermitian_instance(3, 1, seed=314159)
    text = format_biform(form)
    again = parse_biform(text)
    assert again == form
    assert format_biform(again) == text


def test_biform_representation_round_trips():
    for form in _gaussian_instances([(2, 1), (3, 1), (2, 2), (3, 2)], seed=2):
        assert HermitianBiform(form.n_vars, form.half_degree, form.matrix) == form
        assert parse_biform(format_biform(form)) == form


def test_equal_forms_store_equal_ints():
    form = HermitianBiform(2, 1, [[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    assert (form.den, form.re, form.im) == (2, ((1, 0), (0, 3)), None)
    # 2 |z1/2|^2 + 3/2 |z2|^2 sums to (2, 6) over 4 before recompose_squares reduces it
    weighted = [(2, monomial_poly((1, 0), Fraction(1, 2))), (Fraction(3, 2), monomial_poly((0, 1)))]
    assert recompose_squares(2, 1, weighted) == form
    assert zero_biform(2, 1).den == 1


# The bytes format_biform writes for the form below.  The file format is a
# contract, so they must not change with the in-memory storage.
FIXED_FORM_TEXT = """{
  "n_vars": 2,
  "d": 1,
  "terms": [
    {
      "alpha": [
        1,
        0
      ],
      "beta": [
        1,
        0
      ],
      "coeff": {
        "re": "1/2",
        "im": "0"
      }
    },
    {
      "alpha": [
        1,
        0
      ],
      "beta": [
        0,
        1
      ],
      "coeff": {
        "re": "2/3",
        "im": "-5/4"
      }
    },
    {
      "alpha": [
        0,
        1
      ],
      "beta": [
        0,
        1
      ],
      "coeff": {
        "re": "-3",
        "im": "0"
      }
    }
  ]
}"""


def test_format_biform_bytes_are_stable():
    c = gauss(Fraction(2, 3), Fraction(-5, 4))
    form = HermitianBiform(2, 1, [[Fraction(1, 2), c], [c.conjugate(), -3]])
    assert format_biform(form) == FIXED_FORM_TEXT
    assert parse_biform(FIXED_FORM_TEXT) == form


def _matrix_format_biform(form):
    """``format_biform`` as written when it read ``form.matrix``; the bytes
    of the two must be equal."""
    basis = form.basis
    matrix = form.matrix
    terms = []
    for r in range(form.dim):
        for c in range(r, form.dim):
            v = matrix[r][c]
            if v:
                terms.append(
                    {
                        "alpha": list(basis[r]),
                        "beta": list(basis[c]),
                        "coeff": {"re": str(v.re), "im": str(v.im)},
                    }
                )
    doc = {"n_vars": form.n_vars, "d": form.half_degree, "terms": terms}
    return json.dumps(doc, indent=2)


@st.composite
def hermitian_forms(draw):
    """Hermitian forms with int, rational or Gaussian entries, so den 1 and
    den > 1, real and non-real, and many zero entries."""
    n, d = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    dim = len(monomials_of_degree(n, d))
    entries = draw(st.sampled_from([st.integers(-3, 3), COEFFS]))
    entries = st.one_of(st.just(0), entries)
    rows = [[GaussianRational() for _ in range(dim)] for _ in range(dim)]
    for r in range(dim):
        rows[r][r] = GaussianRational.of(draw(entries)).re
        for c in range(r + 1, dim):
            rows[r][c] = GaussianRational.of(draw(entries))
            rows[c][r] = rows[r][c].conjugate()
    return HermitianBiform(n, d, rows)


@given(hermitian_forms(), st.integers(0, 2))
@example(zero_biform(2, 1), 0)
@settings(max_examples=100, deadline=None)
def test_is_sum_of_squares_means_no_negative_square(form, l):
    product = multiply_norm_power(form, l)
    assert is_sum_of_squares(product) is (biform_signature(product).q == 0)


@given(hermitian_forms())
@example(zero_biform(2, 1))
@example(zero_biform(3, 2))
@example(biform_from_terms(2, 1, [((1, 0), (0, 1), i), ((0, 1), (1, 0), -i)]))
@settings(max_examples=150, deadline=None)
def test_format_biform_matches_the_matrix_formatter(form):
    text = format_biform(form)
    assert text == _matrix_format_biform(form)
    assert parse_biform(text) == form


def test_parse_biform_hermitian_completion():
    text = (
        '{"n_vars": 2, "d": 1, "terms": ['
        '{"alpha": [1, 0], "beta": [0, 1], "coeff": {"re": "2", "im": "3"}}]}'
    )
    form = parse_biform(text)
    assert form.matrix[0][1] == GaussianRational(2, 3)
    assert form.matrix[1][0] == GaussianRational(2, -3)
    bad = (
        '{"n_vars": 2, "d": 1, "terms": ['
        '{"alpha": [1, 0], "beta": [0, 1], "coeff": {"re": "2", "im": "3"}},'
        '{"alpha": [0, 1], "beta": [1, 0], "coeff": {"re": "2", "im": "3"}}]}'
    )
    with pytest.raises(ValueError):
        parse_biform(bad)


def _parse_biform_by_terms(text):
    """``parse_biform`` by the term route: each term as a GaussianRational,
    the conjugate of every term whose mirror is not listed, and
    ``biform_from_terms`` on the lot."""
    doc = json.loads(text)
    terms = [
        (tuple(t["alpha"]), tuple(t["beta"]), GaussianRational(Fraction(t["coeff"]["re"]), Fraction(t["coeff"]["im"])))
        for t in doc["terms"]
    ]
    listed = {(alpha, beta) for alpha, beta, _ in terms}
    terms += [(beta, alpha, c.conjugate()) for alpha, beta, c in terms if (beta, alpha) not in listed]
    return biform_from_terms(doc["n_vars"], doc["d"], terms)


PARTS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)).map(str))
BIFORM_FAULTS = ("none", "repeated pair", "non-conjugate mirror", "imaginary diagonal", "wrong degree")


@st.composite
def biform_documents(draw):
    """Biform documents with one fault or none.  Each listed off-diagonal
    pair appears as (alpha, beta) alone, as its mirror alone, or as both,
    the mirror before or after its pair; the terms come in any order."""
    n, d = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    basis = monomials_of_degree(n, d)
    dim = len(basis)
    fault = draw(st.sampled_from(BIFORM_FAULTS))
    target = draw(st.sampled_from([(r, c) for r in range(dim) for c in range(r, dim) if (r == c) == (fault == "imaginary diagonal")]))

    def term(alpha, beta, re, im):
        return {"alpha": list(alpha), "beta": list(beta), "coeff": {"re": re, "im": im}}

    terms = []
    for r in range(dim):
        for c in range(r, dim):
            forced = (r, c) == target and fault in ("non-conjugate mirror", "imaginary diagonal")
            if not (forced or draw(st.booleans())):
                continue
            re, im = draw(PARTS), draw(PARTS)
            if r == c:
                terms.append(term(basis[r], basis[r], re, im if forced else 0))
                continue
            mirror_im = str(1 - Fraction(im) if forced else -Fraction(im))
            listing = "both" if forced else draw(st.sampled_from(["pair", "mirror", "both"]))
            if listing != "mirror":
                terms.append(term(basis[r], basis[c], re, im))
            if listing != "pair":
                terms.append(term(basis[c], basis[r], re, mirror_im))
    terms = draw(st.permutations(terms))
    if fault == "repeated pair" and terms:
        alpha, beta = draw(st.sampled_from([(t["alpha"], t["beta"]) for t in terms]))
        extra = term(alpha, beta, draw(PARTS), 0 if alpha == beta else draw(PARTS))
        terms.insert(draw(st.integers(0, len(terms))), extra)
    if fault == "wrong degree":
        alpha = list(draw(st.sampled_from(basis)))
        alpha = draw(st.sampled_from([alpha + [0], alpha[1:], [alpha[0] + 1] + alpha[1:]]))
        bad = term(alpha, draw(st.sampled_from(basis)), draw(PARTS), 0)
        if draw(st.booleans()):
            bad["alpha"], bad["beta"] = bad["beta"], bad["alpha"]
        terms.insert(draw(st.integers(0, len(terms))), bad)
    return json.dumps({"n_vars": n, "d": d, "terms": terms})


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


TWICE_NO_MIRROR = json.dumps({"n_vars": 2, "d": 1, "terms": [
    {"alpha": [1, 0], "beta": [0, 1], "coeff": {"re": "1", "im": "2"}},
    {"alpha": [0, 1], "beta": [0, 1], "coeff": {"re": "3", "im": "0"}},
    {"alpha": [1, 0], "beta": [0, 1], "coeff": {"re": "1/2", "im": "-1/3"}},
]})


@given(biform_documents())
@example(TWICE_NO_MIRROR)
@settings(max_examples=300, deadline=None)
def test_parse_biform_matches_the_term_route(text):
    assert _outcome(parse_biform, text) == _outcome(_parse_biform_by_terms, text)


def _in_least_terms(form):
    ints = [v for part in (form.re, form.im or ()) for row in part for v in row]
    return form.den > 0 and math.gcd(form.den, *ints) == 1


Z1_HALF = monomial_poly((1, 0), Fraction(1, 2))


@given(square_families().filter(lambda family: family[3] != "not cancelling"), hermitian_forms())
@example((2, 1, [(2, Z1_HALF)], "real"), zero_biform(2, 1))
@example((2, 1, [(Fraction(3, 2), Z1_HALF), (Fraction(-1, 2), Z1_HALF)], "real"), zero_biform(2, 1))
@example((2, 1, [(Fraction(1, 3), Z1_HALF), (Fraction(-1, 3), Z1_HALF)], "real"), zero_biform(3, 2))
@settings(max_examples=100, deadline=None)
def test_every_producer_leaves_least_terms(family, form):
    """den > 0 and gcd(den, re, im) = 1 for every producer: the constructor,
    the parse, the term route, the zero form, ``recompose_squares`` (the
    examples put weight 2 on z1/2 and weights that cancel, whose sums share
    a factor with den), the products by every signed norm and the exact
    quotients."""
    n, d, weighted, _ = family
    squares = recompose_squares(n, d, weighted)
    made = [
        squares,
        HermitianBiform(form.n_vars, form.half_degree, form.matrix),
        parse_biform(format_biform(form)),
        biform_from_terms(form.n_vars, form.half_degree, biform_terms(form)),
        zero_biform(n, d),
    ]
    for base in (form, squares):
        products = [multiply_signed_norm(base, (s, base.n_vars - s)) for s in range(base.n_vars + 1)]
        quotients = [divide_norm_power(products[-1], 1), divide_norm_power(base, 1)]
        assert quotients[0] == base
        made += products + [q for q in quotients if q is not None]
    assert all(_in_least_terms(f) for f in made)
