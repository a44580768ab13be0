"""One reader turns exact scalars into integers, and every entry point
refuses the same inputs through it: an int, a Fraction, an ``(re, im)``
pair of those, or an object with such ``re``/``im`` parts is read exactly;
a bool, a float, a string or anything else raises ``TypeError``.  The rank
routines read no scalar: they take the integers of the reader."""

import json
import operator
from collections import Counter
from fractions import Fraction

import pytest

from macaulay import hermitian, poly
from macaulay.cli import main
from macaulay.hermitian import GaussianRational, HermitianBiform, biform_from_terms, recompose_squares
from macaulay.poly import GradedIdeal, HomogPoly, _exact_parts, format_ideal, graded_piece_dim, monomial_poly

NOT_EXACT = [0.5, "1/3", 1j, None, (1, 2, 3), (0.5, 0), [1, 0], True, (1, False)]


def test_reader_takes_every_exact_scalar_over_one_denominator():
    values = [3, Fraction(-1, 2), (Fraction(1, 3), 2), GaussianRational(0, Fraction(5, 4)), 0]
    assert _exact_parts(values) == ([36, -6, 4, 0, 0], [0, 0, 24, 15, 0], 12)
    assert _exact_parts([]) == ([], [], 1)


@pytest.mark.parametrize("bad", NOT_EXACT)
def test_reader_refuses_anything_else(bad):
    with pytest.raises(TypeError, match="not an exact scalar"):
        _exact_parts([1, bad])


@pytest.mark.parametrize("bad", [True, 0.5, "1/3"])
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
        recompose_squares(2, 1, [(True, p)])
    with pytest.raises(TypeError, match="not an exact scalar"):
        recompose_squares(2, 1, [(1, HomogPoly(2, 1, {(1, 0): 0.5}))])


def test_exact_rank_refuses_inexact_entries(monkeypatch):
    """An inexact entry is refused where it enters, before any row reaches
    a rank routine."""
    def unreachable(rows, *args):
        raise AssertionError("rows reached a rank routine")

    for module, name in ((poly, "exact_rank"), (poly, "rank_mod_prime"), (hermitian, "exact_rank"),
                         (hermitian, "rank_mod_prime")):
        monkeypatch.setattr(module, name, unreachable)
    ideal = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 1, (0, 1): 0.5}),))
    for mode in ("exact", "modular-checked"):
        with pytest.raises(TypeError, match="not an exact scalar"):
            graded_piece_dim(ideal, 2, mode)
    for bad in (0.5, "2"):
        with pytest.raises(TypeError, match="not an exact scalar"):
            hermitian.biform_rank(HermitianBiform(2, 1, [[1, 0], [0, bad]]))


@pytest.mark.parametrize("bad", [True, 0.5, "1/3", None, 1j])
def test_gaussian_rational_refuses_inexact_parts(bad):
    for parts in ((bad,), (1, bad)):
        with pytest.raises(TypeError, match="not an exact scalar"):
            GaussianRational(*parts)
    assert GaussianRational(Fraction(1, 2), -3).im == -3
    # arithmetic lifts no inexact operand
    assert GaussianRational(1) == 1 and GaussianRational(1) != bad
    with pytest.raises(TypeError):
        GaussianRational(1) + bad


def _pair(value):
    return (value.re, value.im) if isinstance(value, GaussianRational) else (value, 0)


def _pair_op(symbol, x, y):
    """The exact (re, im) of x <symbol> y, on pairs of rationals."""
    (a, b), (c, d) = _pair(x), _pair(y)
    if symbol == "+":
        return a + c, b + d
    if symbol == "-":
        return a - c, b - d
    if symbol == "*":
        return a * c - b * d, a * d + b * c
    n = Fraction(c * c + d * d)
    return (a * c + b * d) / n, (b * c - a * d) / n


OPERATORS = {"==": operator.eq, "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize("reflected", [False, True], ids=["forward", "reflected"])
@pytest.mark.parametrize("symbol", list(OPERATORS))
def test_gaussian_rational_operands_follow_the_constructor(symbol, reflected):
    """An operand of ``==`` and of the arithmetic, on either side, is taken
    iff the constructor takes it: ints, Fractions and Gaussian rationals
    give the exact value, and a float, a string, a bool or a tuple makes
    the arithmetic raise ``TypeError`` and ``==`` come out False."""
    op = OPERATORS[symbol]
    g = GaussianRational(Fraction(1, 2), -3)
    for other in (2, Fraction(-2, 3), GaussianRational(1, Fraction(1, 4)), GaussianRational(Fraction(1, 2), -3)):
        x, y = (other, g) if reflected else (g, other)
        if symbol == "==":
            assert op(x, y) is (_pair(x) == _pair(y))
            continue
        value = op(x, y)
        assert isinstance(value, GaussianRational) and (value.re, value.im) == _pair_op(symbol, x, y)
    for bad in (0.5, "1", True, (1, 0)):
        x, y = (bad, g) if reflected else (g, bad)
        if symbol == "==":
            assert op(x, y) is False
            continue
        with pytest.raises(TypeError):
            op(x, y)


@pytest.mark.parametrize(
    "listed, total",
    [
        (((1, 2), (Fraction(1, 3), -1)), (Fraction(4, 3), 1)),
        (((1, 2), Fraction(1, 3)), (Fraction(4, 3), 2)),
        ((Fraction(1, 3), (1, 2)), (Fraction(4, 3), 2)),
        (((1, 2), GaussianRational(Fraction(1, 3), 5)), (Fraction(4, 3), 7)),
        ((2, (Fraction(1, 2), -1), GaussianRational(Fraction(-1, 3), Fraction(1, 4))), (Fraction(13, 6), Fraction(-3, 4))),
    ],
    ids=["tuple+tuple", "tuple+Fraction", "Fraction+tuple", "tuple+GaussianRational", "int+tuple+GaussianRational"],
)
def test_biform_from_terms_sums_repeated_pairs_of_every_exact_scalar(listed, total):
    """Each repeat is added to the sum so far as it is inserted."""
    cross, mirror = ((1, 0), (0, 1)), ((0, 1), (1, 0))
    conj = (*mirror, GaussianRational(*total).conjugate())
    repeated = biform_from_terms(2, 1, [(*cross, c) for c in listed] + [conj])
    assert repeated == biform_from_terms(2, 1, [(*cross, GaussianRational(*total)), conj])
    with pytest.raises(TypeError, match="not an exact scalar"):
        biform_from_terms(2, 1, [(*cross, listed[0]), (*cross, (1, 0.5)), conj])


def test_a_real_gaussian_rational_hashes_as_its_real_part():
    assert hash(GaussianRational(1)) == hash(1)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(GaussianRational(Fraction(-3, 4), 0)) == hash(Fraction(-3, 4))
    assert len({GaussianRational(1), 1, Fraction(1)}) == 1
    assert {1: "a"}.get(GaussianRational(1)) == "a"
    assert len({GaussianRational(1, 2), GaussianRational(Fraction(2, 2), 2), GaussianRational(1, -2)}) == 2


def test_format_ideal_writes_rationals_only():
    ideal = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 3, (0, 1): Fraction(-1, 2)}),))
    assert [t["coeff"] for t in json.loads(format_ideal(ideal))["generators"][0]] == ["3", "-1/2"]
    for bad in (True, 0.1, GaussianRational(1, 2)):
        with pytest.raises(TypeError, match="not a rational coefficient"):
            format_ideal(GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 1, (0, 1): bad}),)))


def test_graded_piece_refuses_inexact_generator_coefficients():
    for bad in (True, 0.5):
        ideal = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 1, (0, 1): bad}),))
        with pytest.raises(TypeError, match="not an exact scalar"):
            graded_piece_dim(ideal, 2)
    assert graded_piece_dim(GradedIdeal(2, (monomial_poly((1, 0), Fraction(1, 2)),)), 2) == 2


def test_rank_routines_see_only_integer_rows(monkeypatch, tmp_path, capsys):
    """Every value that reaches ``exact_rank`` or ``rank_mod_prime`` is a
    nonzero int or a nonzero pair of ints, one kind per matrix, on every
    path that computes a rank: ``verify`` and modular-checked ``hilbert`` on
    ideal files, graded pieces of a mixed real and Gaussian ideal in both
    modes, ``verify_ideal_containment``, ``hermitian`` on a real, a
    full-rank non-real and two rank-deficient non-real biforms, and
    ``min-sos``.  Calls are counted per routine: ``biform_rank`` ranks a
    non-real matrix modulo a prime first, and ``exact_rank`` only when that
    rank falls short of the row count, or for a product by the norm, of
    r*n when that is smaller.  A form whose p + q already falls short of
    its row count skips the modular rank and goes to ``exact_rank``, so
    the two rank-deficient forms make one ``rank_mod_prime`` call each,
    on their products.  The product of |z1 - i z2|^2 (rank 2 = r*n) is
    certified, and that of the Koszul form |z1 g|^2 + |z2 g|^2,
    g = z1 + i z2, whose rank 3 falls short of r*n = 4, is not."""
    calls = []

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
            calls.extend((kernel.__name__, kind) for kind in seen)
            return kernel(rows, *args)
        return run

    monkeypatch.setattr(poly, "exact_rank", checked(poly.exact_rank))
    monkeypatch.setattr(poly, "rank_mod_prime", checked(poly.rank_mod_prime))
    monkeypatch.setattr(hermitian, "exact_rank", poly.exact_rank)
    monkeypatch.setattr(hermitian, "rank_mod_prime", poly.rank_mod_prime)

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
    assert {kind for _, kind in calls} == {"int"}
    assert {name for name, _ in calls} == {"exact_rank", "rank_mod_prime"}

    c = GaussianRational(Fraction(1, 2), 3)
    mixed = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): 2, (0, 1): c}), HomogPoly(2, 2, {(2, 0): 4, (0, 2): Fraction(1, 3)})))
    before = len(calls)
    assert [graded_piece_dim(mixed, 2, mode) for mode in ("exact", "modular-checked")] == [3, 3]
    assert ("rank_mod_prime", "pair") in calls[before:]
    sq1, sq2, cross = monomial_poly((2, 0)), monomial_poly((0, 2)), monomial_poly((1, 1))
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    h = [monomial_poly((3, 0)), half * monomial_poly((3, 0)), half * monomial_poly((2, 1)),
         half * monomial_poly((1, 2)), monomial_poly((0, 3)), half * monomial_poly((0, 3))]
    before = len(calls)
    assert hermitian.verify_ideal_containment([sq1, half * sq1, sq2, half * sq2], [cross], h, 1)
    assert ("exact_rank", "pair") in calls[before:]

    i = GaussianRational(0, 1)
    real = hermitian.biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    gaussian = hermitian.biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((1, 0), (0, 1), GaussianRational(1, 2)),
                                                  ((0, 1), (1, 0), GaussianRational(1, -2))])
    rank_one = hermitian.biform_from_squares(2, 1, [HomogPoly(2, 1, {(1, 0): GaussianRational(1), (0, 1): -i})])
    g = HomogPoly(2, 1, {(1, 0): GaussianRational(1), (0, 1): i})
    koszul = hermitian.biform_from_squares(2, 2, [monomial_poly((1, 0)) * g, monomial_poly((0, 1)) * g])
    # (form, product) ranks: (2, 3) for the full-rank non-real form, (1, 2) for |z1 - i z2|^2, (2, 3) for koszul
    for k, (form, expected) in enumerate((
        (real, {("exact_rank", "int"): 2}),
        (gaussian, {("rank_mod_prime", "pair"): 2}),
        (rank_one, {("rank_mod_prime", "pair"): 1, ("exact_rank", "pair"): 1}),
        (koszul, {("rank_mod_prime", "pair"): 1, ("exact_rank", "pair"): 2}),
    )):
        path = tmp_path / f"biform-{k}.json"
        path.write_text(hermitian.format_biform(form))
        before = len(calls)
        cli("hermitian", str(path))
        assert Counter(calls[before:]) == expected
        cli("min-sos", str(path), "--l-max", "2")
