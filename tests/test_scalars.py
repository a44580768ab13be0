"""One reader turns exact scalars into integers, and every entry point
refuses the same inputs through it: an int, a Fraction, an ``(re, im)``
pair of those, or an object with such ``re``/``im`` parts is read exactly;
a float, a string or anything else raises ``TypeError``.  The rank
routines read no scalar: they take the integers of the reader."""

import json
from fractions import Fraction

import pytest

from macaulay import hermitian, poly
from macaulay.cli import main
from macaulay.hermitian import GaussianRational, HermitianBiform, biform_from_terms, recompose_squares
from macaulay.poly import GradedIdeal, HomogPoly, _exact_parts, format_ideal, graded_piece_dim, monomial_poly

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


def test_exact_rank_refuses_inexact_entries(monkeypatch):
    """An inexact entry is refused where it enters, before any row reaches
    a rank routine."""
    def unreachable(rows, *args):
        raise AssertionError("rows reached a rank routine")

    for module, name in ((poly, "exact_rank"), (poly, "rank_mod_prime"), (hermitian, "exact_rank")):
        monkeypatch.setattr(module, name, unreachable)
    ideal = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 1, (0, 1): 0.5}),))
    for mode in ("exact", "modular-checked"):
        with pytest.raises(TypeError, match="not an exact scalar"):
            graded_piece_dim(ideal, 2, mode)
    for bad in (0.5, "2"):
        with pytest.raises(TypeError, match="not an exact scalar"):
            hermitian.biform_rank(HermitianBiform(2, 1, [[1, 0], [0, bad]]))


@pytest.mark.parametrize("bad", [0.5, "1/3", None, 1j])
def test_gaussian_rational_refuses_inexact_parts(bad):
    for parts in ((bad,), (1, bad)):
        with pytest.raises(TypeError, match="not an exact scalar"):
            GaussianRational(*parts)
    assert GaussianRational(Fraction(1, 2), -3).im == -3


def test_format_ideal_writes_rationals_only():
    ideal = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 3, (0, 1): Fraction(-1, 2)}),))
    assert [t["coeff"] for t in json.loads(format_ideal(ideal))["generators"][0]] == ["3", "-1/2"]
    for bad in (0.1, GaussianRational(1, 2)):
        with pytest.raises(TypeError, match="not a rational coefficient"):
            format_ideal(GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 1, (0, 1): bad}),)))


def test_graded_piece_refuses_inexact_generator_coefficients():
    ideal = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 1, (0, 1): 0.5}),))
    with pytest.raises(TypeError, match="not an exact scalar"):
        graded_piece_dim(ideal, 2)
    assert graded_piece_dim(GradedIdeal(2, (monomial_poly((1, 0), Fraction(1, 2)),)), 2) == 2


def test_rank_routines_see_only_integer_rows(monkeypatch, tmp_path, capsys):
    """Every value that reaches ``exact_rank`` or ``rank_mod_prime`` is a
    nonzero int or a nonzero pair of ints, one kind per matrix, on every
    path that computes a rank: ``verify`` and modular-checked ``hilbert`` on
    ideal files, graded pieces of a mixed real and Gaussian ideal in both
    modes, ``verify_ideal_containment``, ``hermitian`` on a real and on a
    non-real biform, and ``min-sos``."""
    kinds = []

    def checked(kernel):
        def run(rows, *args):
            rows = list(rows)
            seen = set()
            for row in rows:
                for v in row.values():
                    if type(v) is tuple and len(v) == 2 and {type(x) for x in v} == {int} and v != (0, 0):
                        seen.add("pair")
                    elif type(v) is int and v:
                        seen.add("int")
                    else:
                        raise AssertionError(f"{v!r} reached {kernel.__name__}")
            assert len(seen) <= 1, f"{kernel.__name__} got a matrix of {sorted(seen)}"
            kinds.extend(seen)
            return kernel(rows, *args)
        return run

    monkeypatch.setattr(poly, "exact_rank", checked(poly.exact_rank))
    monkeypatch.setattr(poly, "rank_mod_prime", checked(poly.rank_mod_prime))
    monkeypatch.setattr(hermitian, "exact_rank", poly.exact_rank)

    def cli(*argv):
        assert main(["--format", "structured", *argv]) == 0
        capsys.readouterr()

    ideal = tmp_path / "ideal.json"
    ideal.write_text(format_ideal(GradedIdeal(3, (
        HomogPoly(3, 2, {(2, 0, 0): Fraction(2, 3), (0, 1, 1): -4, (0, 0, 2): Fraction(1, 6)}),
        HomogPoly(3, 1, {(1, 0, 0): 6, (0, 0, 1): Fraction(-3, 2)}),
    ))))
    cli("verify", str(ideal), "--d-max", "4")
    cli("hilbert", str(ideal), "--d-max", "4", "--mode", "modular-checked")
    assert set(kinds) == {"int"}

    c = GaussianRational(Fraction(1, 2), 3)
    mixed = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 2, (0, 1): c}), HomogPoly(2, 2, {(2, 0): 4, (0, 2): Fraction(1, 3)})))
    assert [graded_piece_dim(mixed, 2, mode) for mode in ("exact", "modular-checked")] == [3, 3]
    sq1, sq2, cross = monomial_poly((2, 0)), monomial_poly((0, 2)), monomial_poly((1, 1))
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    h = [monomial_poly((3, 0)), half * monomial_poly((3, 0)), half * monomial_poly((2, 1)),
         half * monomial_poly((1, 2)), monomial_poly((0, 3)), half * monomial_poly((0, 3))]
    assert hermitian.verify_ideal_containment([sq1, half * sq1, sq2, half * sq2], [cross], h, 1)
    assert "pair" in kinds

    real = hermitian.biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    gaussian = hermitian.biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((1, 0), (0, 1), GaussianRational(1, 2)),
                                                  ((0, 1), (1, 0), GaussianRational(1, -2))])
    for i, form in enumerate((real, gaussian)):
        path = tmp_path / f"biform-{i}.json"
        path.write_text(hermitian.format_biform(form))
        before = len(kinds)
        cli("hermitian", str(path))
        assert kinds[before:] == ["pair" if form.im else "int"] * 2
        cli("min-sos", str(path), "--l-max", "2")
