"""One reader turns exact scalars into integers, and every entry point
refuses the same inputs through it: an int, a Fraction, an ``(re, im)``
pair of those, or an object with such ``re``/``im`` parts is read exactly;
a float, a string or anything else raises ``TypeError``."""

from fractions import Fraction

import pytest

from macaulay.hermitian import GaussianRational, HermitianBiform, biform_from_terms, recompose_squares
from macaulay.poly import GradedIdeal, HomogPoly, _exact_parts, exact_rank, graded_piece_dim, monomial_poly

NOT_EXACT = [0.5, "1/3", 1j, None, (1, 2, 3), (0.5, 0), [1, 0]]


def test_reader_takes_every_exact_scalar_over_one_denominator():
    values = [3, Fraction(-1, 2), (Fraction(1, 3), 2), GaussianRational(0, Fraction(5, 4)), 0]
    assert _exact_parts(values) == ([36, -6, 4, 0, 0], [0, 0, 24, 15, 0], 12)
    assert _exact_parts([]) == ([], [], 1)


@pytest.mark.parametrize("bad", NOT_EXACT)
def test_reader_refuses_anything_else(bad):
    with pytest.raises(TypeError, match="not an exact scalar"):
        _exact_parts([1, bad])


@pytest.mark.parametrize("bad", [0.5, "1/3"])
def test_biform_constructor_refuses_inexact_entries(bad):
    with pytest.raises(TypeError, match="not an exact scalar"):
        HermitianBiform(2, 1, [[bad, 0], [0, 1]])
    with pytest.raises(TypeError, match="not an exact scalar"):
        biform_from_terms(2, 1, [((1, 0), (1, 0), bad)])


def test_biform_constructor_reads_pairs_and_gaussian_rationals_alike():
    pairs = HermitianBiform(2, 1, [[1, (Fraction(1, 2), 1)], [(Fraction(1, 2), -1), 0]])
    gauss = HermitianBiform(2, 1, [[1, GaussianRational(Fraction(1, 2), 1)], [GaussianRational(Fraction(1, 2), -1), 0]])
    assert pairs == gauss and pairs.den == 2


def test_recompose_squares_refuses_inexact_weights_and_coefficients():
    p = HomogPoly(2, 1, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    assert recompose_squares(2, 1, [(Fraction(3, 2), p)]) == recompose_squares(2, 1, [((Fraction(3, 2), 0), p)])
    with pytest.raises(TypeError, match="not an exact scalar"):
        recompose_squares(2, 1, [(1.5, p)])
    with pytest.raises(TypeError, match="not an exact scalar"):
        recompose_squares(2, 1, [(1, HomogPoly(2, 1, {(1, 0): 0.5}))])


def test_exact_rank_refuses_inexact_entries():
    assert exact_rank([{0: (1, 0), 1: Fraction(1, 2)}, {0: 2, 1: 1}]) == 1
    with pytest.raises(TypeError, match="not an exact scalar"):
        exact_rank([{0: 0.5}])
    with pytest.raises(TypeError, match="not an exact scalar"):
        exact_rank([{0: 1}, {0: "2", 1: 1}])


def test_graded_piece_refuses_inexact_generator_coefficients():
    ideal = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 1, (0, 1): 0.5}),))
    with pytest.raises(TypeError, match="not an exact scalar"):
        graded_piece_dim(ideal, 2)
    assert graded_piece_dim(GradedIdeal(2, (monomial_poly((1, 0), Fraction(1, 2)),)), 2) == 2
