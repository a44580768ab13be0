"""Diagonal Hermitian forms against integer polynomial products.

For M = sum_a c_a |z^a|^2 and the signed norm N of signature (s, t), the
product M * N^l is diagonal, with the coefficients of
p(x) * (x_1 + ... + x_s - x_(s+1) - ... - x_n)^l where p(x) = sum_a c_a x^a
(``references.poly_product``).  So its rank is the number of nonzero
coefficients, and its signature the numbers of positive and negative
ones.  With integer c_a the forms are real, so these tests run the real
(``im`` None) paths of the rank and congruence kernels, at norm powers
that random forms do not reach.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from macaulay.cli import cmd_hermitian
from macaulay.hermitian import (
    biform_from_terms,
    biform_signature,
    find_min_sos_exponent,
    format_biform,
    multiply_signed_norm,
)
from macaulay.poly import monomials_of_degree
from references import diagonal_min_sos_power, poly_product


def _linear_power(n, s, l):
    """(x_1 + ... + x_s - x_(s+1) - ... - x_n)^l as a coefficient dict."""
    linear = {tuple(int(k == j) for k in range(n)): 1 if j < s else -1 for j in range(n)}
    out = {(0,) * n: 1}
    for _ in range(l):
        out = poly_product(out, linear)
    return out


def _signs(coeffs):
    """The numbers of positive and of negative coefficients."""
    return sum(c > 0 for c in coeffs.values()), sum(c < 0 for c in coeffs.values())


@st.composite
def diagonal_cases(draw):
    """(n, d, coefficients, s, l): a nonzero diagonal form with integer
    coefficients, a signed norm (s, n - s) and a norm power l."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
    coeffs = draw(st.dictionaries(st.sampled_from(monomials_of_degree(n, d)), nonzero, min_size=1))
    return n, d, coeffs, draw(st.integers(0, n)), draw(st.integers(1, 4))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("diagonal") / "form.json"


@given(diagonal_cases())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_diagonal_forms_match_polynomial_products(path, case):
    """The ``hermitian`` report's signature, rank, product rank at (s, t),
    norm-power rank and sum-of-squares flag at l, and the signature of the
    l-th power of the signed norm, all read off coefficient signs."""
    n, d, coeffs, s, l = case
    form = biform_from_terms(n, d, [(a, a, c) for a, c in coeffs.items()])
    path.write_text(format_biform(form))
    outputs = cmd_hermitian(str(path), s, n - s, l).outputs
    p, q = _signs(coeffs)
    product = poly_product(coeffs, _linear_power(n, s, 1))
    power = poly_product(coeffs, _linear_power(n, n, l))
    assert outputs["signature"] == {"p": p, "q": q}
    assert outputs["rank"] == len(coeffs)
    assert outputs["product_rank"] == len(product)
    assert outputs["norm_power_rank"] == len(power)
    assert outputs["norm_power_is_sum_of_squares"] == (_signs(power)[1] == 0)
    signed = form
    for _ in range(l):
        signed = multiply_signed_norm(signed, (s, n - s))
    assert biform_signature(signed) == _signs(poly_product(coeffs, _linear_power(n, s, l)))


@pytest.mark.parametrize("lam, least", [(Fraction(1), 1), (Fraction(3, 2), 5), (Fraction(9, 5), 17)])
def test_min_sos_power_matches_the_closed_form(lam, least):
    """|z1|^4 - lam |z1 z2|^2 + |z2|^4: the closed form, the least l at
    which the integer product has no negative coefficient, and
    ``find_min_sos_exponent`` with the search ending at, past and just
    before that l all agree."""
    assert diagonal_min_sos_power(lam) == least
    scaled = {(2, 0): lam.denominator, (1, 1): -lam.numerator, (0, 2): lam.denominator}
    assert next(l for l in range(1, least + 1) if _signs(poly_product(scaled, _linear_power(2, 2, l)))[1] == 0) == least
    form = biform_from_terms(2, 2, [((2, 0), (2, 0), 1), ((1, 1), (1, 1), -lam), ((0, 2), (0, 2), 1)])
    assert find_min_sos_exponent(form, least) == least
    assert find_min_sos_exponent(form, least + 2) == least
    if least > 1:
        assert find_min_sos_exponent(form, least - 1) is None
