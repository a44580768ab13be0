"""The graded-piece rows that Buchberger's product criterion keeps span I_d.

The oracle builds every monomial multiple m*g with its own code, sharing
nothing with ``poly._graded_piece_rows``, and compares the rank of that
full matrix with ``graded_piece_dim``.  Dense random generators almost
never expose a wrong pruning rule, so the inputs are mostly sparse, repeat
and scale generators, let generators share a leading monomial, and
include factors of binomials.

The one-pass Hilbert records, which fill every degree after the quotient
vanishes without elimination, are checked against the records of single
degrees.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macaulay import poly
from macaulay.cli import main
from macaulay.hermitian import GaussianRational
from macaulay.poly import (
    GradedIdeal,
    HomogPoly,
    exact_rank,
    format_ideal,
    graded_piece_dim,
    hilbert_record,
    hilbert_records,
    monomial_poly,
    variable,
    verify_macaulay,
)
from references import brute_hilbert_monomial, integer_rows

# (z1^2 - z1*z2 + z2^2, z1 - z2) in 2 variables
CYCLOTOMIC = GradedIdeal(2, (
    HomogPoly(2, 2, {(2, 0): 1, (1, 1): -1, (0, 2): 1}),
    HomogPoly(2, 1, {(1, 0): 1, (0, 1): -1}),
))


def all_multiples(ideal: GradedIdeal, d: int) -> list[dict[int, object]]:
    """Every row m*g with deg m + deg g = d, over columns numbered by
    sorting the exponent tuples of degree d."""
    n = ideal.n_vars

    def exponents(k: int, slots: int):
        if slots == 1:
            yield (k,)
            return
        for e in range(k + 1):
            for rest in exponents(k - e, slots - 1):
                yield (e, *rest)

    column = {m: i for i, m in enumerate(sorted(exponents(d, n)))}
    rows = []
    for g in ideal.generators:
        if g.degree <= d:
            for m in exponents(d - g.degree, n):
                rows.append({column[tuple(a + b for a, b in zip(m, t))]: c for t, c in g.terms.items()})
    return rows


def grevlex_key(m):
    """Sort key putting the grevlex-largest monomial first."""
    return m[::-1]


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def scalar(draw, gaussian: bool):
    if gaussian and draw(st.booleans()):
        return GaussianRational(draw(st.fractions(min_value=-3, max_value=3, max_denominator=2)), draw(coefficients))
    return draw(coefficients)


@st.composite
def ideals(draw, monomial: bool = False):
    """1-4 generators of degree 1-3 in 2-4 variables: mostly 2-3 terms,
    sometimes a copy of an earlier generator times a scalar, a new one
    with the leading monomial of an earlier one, or a binomial factor
    (z_a^k - c^k z_b^k) / (z_a - c z_b).  A multiple of a binomial factor
    has just two terms, so it makes the kept rows dependent under a rule
    that prunes by one of its middle terms; generic generators hide such
    a rule."""
    n = draw(st.integers(2, 4))
    gaussian = not monomial and draw(st.booleans())
    gens: list[HomogPoly] = []
    for _ in range(draw(st.integers(1, 4))):
        if monomial:
            kind = "monomial"
        else:
            kind = draw(st.sampled_from(("sparse", "sparse", "dense", "binomial-factor")
                                        + (("copy", "shared-lead") if gens else ())))
        if kind == "binomial-factor":
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            degree = draw(st.integers(2, 3))
            c = draw(st.sampled_from((1, -1, 2, Fraction(-1, 2))))
            terms = {}
            for t in range(degree + 1):
                mono = [0] * n
                mono[a], mono[b] = degree - t, t
                terms[tuple(mono)] = Fraction(c) ** t
            gens.append(HomogPoly(n, degree, terms))
            continue
        if kind == "copy":
            g = gens[draw(st.integers(0, len(gens) - 1))]
            k = draw(scalar(gaussian))
            gens.append(HomogPoly(n, g.degree, {m: c * k for m, c in g.terms.items()}))
            continue
        if kind == "shared-lead":
            g = gens[draw(st.integers(0, len(gens) - 1))]
            lead = min(g.terms, key=grevlex_key)
            later = [m for m in poly.monomials_of_degree(n, g.degree) if grevlex_key(m) > grevlex_key(lead)]
            others = draw(st.lists(st.sampled_from(later), max_size=2, unique=True)) if later else []
            gens.append(HomogPoly(n, g.degree, {m: draw(scalar(gaussian)) for m in [lead, *others]}))
            continue
        degree = draw(st.integers(1, 3))
        basis = sorted(poly.monomials_of_degree(n, degree))
        size = {"monomial": 1, "sparse": draw(st.integers(2, 3)), "dense": len(basis)}[kind]
        monos = draw(st.lists(st.sampled_from(basis), min_size=min(size, len(basis)), max_size=min(size, len(basis)),
                              unique=True))
        gens.append(HomogPoly(n, degree, {m: draw(scalar(gaussian)) for m in monos}))
    return GradedIdeal(n, tuple(gens))


@settings(max_examples=300, deadline=None)
@given(ideals(), st.integers(1, 6))
@example(CYCLOTOMIC, 4)
def test_kept_rows_span_every_monomial_multiple(ideal, d):
    if ideal.n_vars == 4:
        d = min(d, 5)
    assert graded_piece_dim(ideal, d) == exact_rank(integer_rows(all_multiples(ideal, d)))


@settings(max_examples=150, deadline=None)
@given(ideals(monomial=True), st.integers(1, 6))
def test_monomial_ideals_match_the_brute_count(ideal, d):
    assert graded_piece_dim(ideal, d) == brute_hilbert_monomial(ideal, d)


def test_worked_values():
    assert [graded_piece_dim(CYCLOTOMIC, d) for d in range(1, 7)] == [1, 3, 4, 5, 6, 7]
    z1z2 = GradedIdeal(3, (variable(0, 3), variable(1, 3)))
    kept, skipped = poly._graded_piece_rows(3, z1z2._autoreduction.given, 2)
    assert len(kept) == 5
    assert len(kept) + len(list(skipped)) == len(all_multiples(z1z2, 2)) == 6
    assert graded_piece_dim(z1z2, 2) == 5
    # a copy keeps just its multiples by monomials free of z1, the first's lead
    z1_twice = GradedIdeal(2, (monomial_poly((1, 0), Fraction(2)), variable(0, 2)))
    assert [len(poly._graded_piece_rows(2, z1_twice._autoreduction.given, d)[0]) for d in (1, 2, 3)] == [2, 3, 4]
    assert [graded_piece_dim(z1_twice, d) for d in (1, 2, 3)] == [1, 2, 3]


def test_modular_checked_catches_a_pruned_needed_row(capsys, monkeypatch, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(format_ideal(GradedIdeal(3, (variable(0, 3), variable(1, 3)))))
    argv = ["hilbert", str(path), "--d-max", "3", "--mode", "modular-checked"]
    assert main(argv) == 0
    capsys.readouterr()
    true_rows = poly._graded_piece_rows

    def prune_one_more(n_vars, generators, d):
        kept, skipped = true_rows(n_vars, generators, d)
        return kept[1:], iter([*kept[:1], *skipped])

    monkeypatch.setattr(poly, "_graded_piece_rows", prune_one_more)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: exact rank ")


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(ideals(), st.integers(1, 6))
@example(GradedIdeal(3, (HomogPoly(3, 1, {(1, 0, 0): 1, (0, 1, 0): 1}),
                        HomogPoly(3, 1, {(0, 1, 0): 1, (0, 0, 1): 1}))), 1)
def test_autoreduced_generators_are_reduced_and_primitive(ideal, d):
    """No term of a reduced generator is divisible by the leading monomial
    of another, and each holds a primitive vector of the ideal's one kind:
    ints, or (re, im) int pairs if a coefficient is not real.  That the
    reduced generators keep I_d is the rank check of
    ``test_kept_rows_span_every_monomial_multiple``.  The example needs
    the back-reduction of z1 + z2 by the later z2 + z3."""
    reduced = ideal._autoreduction.generators(d)
    assert all(degree <= d for degree, _ in reduced)
    leads = [min(terms, key=grevlex_key) for _, terms in reduced]
    for i, (_, terms) in enumerate(reduced):
        for j, lead in enumerate(leads):
            if i != j:
                assert not any(divides(lead, t) for t in terms), (terms, reduced[j])
    gaussian = any(getattr(c, "im", 0) for g in ideal.generators for c in g.terms.values())
    for _, terms in reduced:
        values = list(terms.values())
        if gaussian:
            assert all(type(v) is tuple and [type(x) for x in v] == [int, int] for v in values)
            assert math.gcd(*(x for v in values for x in v)) == 1
        else:
            assert all(type(v) is int for v in values)
            assert math.gcd(*values) == 1


def test_autoreduction_worked_cases():
    z1, z2, z3 = (variable(i, 3) for i in range(3))
    one = Fraction(1)
    # a multiple and a generator the first divides to zero are dropped
    given = GradedIdeal(3, (z1 + z2, 2 * (z1 + z2), z1 * z1 + z1 * z2))
    assert given._autoreduction.generators(2) == [(1, {(1, 0, 0): 1, (0, 1, 0): 1})]
    assert given._autoreduction.generators(0) == []
    assert [graded_piece_dim(given, d) for d in range(4)] == [0, 1, 3, 6]
    # a monomial divisible by an earlier one is dropped, whatever the order given
    for gens in ((z1, z1 * z2), (z1 * z2, z1)):
        assert GradedIdeal(3, gens)._autoreduction.generators(3) == [(1, {(1, 0, 0): 1})]
    # z1 + z2 loses its z2 to the later z2 + z3 of the same degree; the pair is made primitive
    pair = GradedIdeal(3, (z1 + z2, z2 * Fraction(2, 3) + z3 * Fraction(2, 3)))
    assert pair._autoreduction.generators(1) == [(1, {(1, 0, 0): 1, (0, 0, 1): -1}), (1, {(0, 1, 0): 1, (0, 0, 1): 1})]
    # over Q(i): i*(z1 + i*z2) is a multiple, and z1*(z1 + i*z2) reduces to zero
    i = GaussianRational(0, 1)
    gaussian = GradedIdeal(2, (HomogPoly(2, 1, {(1, 0): one, (0, 1): i}), HomogPoly(2, 1, {(1, 0): i, (0, 1): -one}),
                               HomogPoly(2, 2, {(2, 0): one, (1, 1): i})))
    assert gaussian._autoreduction.generators(2) == [(1, {(1, 0): (1, 0), (0, 1): (0, 1)})]


@pytest.mark.parametrize("mode", ["exact", "modular-checked"])
def test_autoreduction_stops_at_the_largest_degree_asked(capsys, monkeypatch, tmp_path, mode):
    """(z1 + ... + z10, z1^8) up to degree 3: the degree-8 generator is never
    divided; dividing it would expand z1^8 into (z2 + ... + z10)^8."""
    linear = HomogPoly(10, 1, {tuple(int(i == k) for i in range(10)): 1 for k in range(10)})
    path = tmp_path / "ideal.json"
    path.write_text(format_ideal(GradedIdeal(10, (linear, monomial_poly((8,) + (0,) * 9)))))
    divided = []
    true_reduce = poly._Autoreduction._reduce

    def counted(self, delta):
        divided.append(delta)
        return true_reduce(self, delta)

    monkeypatch.setattr(poly._Autoreduction, "_reduce", counted)
    argv = ["--format", "structured", "hilbert", str(path), "--d-max", "3", "--mode", mode]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["h_ideal"] == [0, 1, 10, 55]
    assert divided == [1]


def test_modular_checked_catches_a_dropped_reduced_generator(capsys, monkeypatch, tmp_path):
    """(z1 + z2, z1 + z3) autoreduces to (z1 + z3, z2 - z3) up to sign; with
    the last reduced generator dropped, the exact rank falls short of the
    rank of the given generators' multiples."""
    z1, z2, z3 = (variable(i, 3) for i in range(3))
    path = tmp_path / "ideal.json"
    path.write_text(format_ideal(GradedIdeal(3, (z1 + z2, z1 + z3))))
    argv = ["hilbert", str(path), "--d-max", "3", "--mode", "modular-checked"]
    assert main(argv) == 0
    capsys.readouterr()
    true_generators = poly._Autoreduction.generators

    def drop_last(self, d):
        return true_generators(self, d)[:-1]

    monkeypatch.setattr(poly._Autoreduction, "generators", drop_last)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: exact rank ")


@st.composite
def vanishing_ideals(draw):
    """Ideals whose quotient vanishes at some degree: pure powers c*z_i^k
    (k <= 3), n dense forms of degree 1-2 in n variables (a regular
    sequence for most coefficients), or (z_1, ..., z_n)."""
    n = draw(st.integers(2, 4))
    gaussian = draw(st.booleans())
    kind = draw(st.sampled_from(("pure-powers", "dense", "maximal")))
    if kind == "maximal":
        return GradedIdeal(n, tuple(variable(i, n) for i in range(n)))
    gens = []
    for i in range(n):
        if kind == "pure-powers":
            gens.append(monomial_poly([draw(st.integers(1, 3)) if j == i else 0 for j in range(n)],
                                      draw(scalar(gaussian))))
        else:
            degree = draw(st.integers(1, 2))
            gens.append(HomogPoly(n, degree, {m: draw(scalar(gaussian)) for m in poly.monomials_of_degree(n, degree)}))
    return GradedIdeal(n, tuple(draw(st.permutations(gens))))


@settings(max_examples=200, deadline=None)
@given(st.one_of(ideals(), vanishing_ideals()), st.integers(0, 6), st.sampled_from(("exact", "modular-checked")))
@example(GradedIdeal(2, (variable(0, 2),)), 4, "exact")
def test_one_pass_records_equal_hilbert_record_at_every_degree(ideal, d_max, mode):
    """The degrees after H_{R/I} reaches 0 are filled, not eliminated, and
    agree with the eliminated values; (z1) in 2 variables keeps a quotient
    of dimension 1 at every degree."""
    if ideal.n_vars == 4:
        d_max = min(d_max, 5)
    want = [hilbert_record(ideal, d, mode=mode) for d in range(d_max + 1)]
    assert hilbert_records(ideal, d_max, mode=mode) == want


@pytest.mark.parametrize("mode", ["exact", "modular-checked"])
def test_no_elimination_after_the_quotient_vanishes(monkeypatch, mode):
    maximal = GradedIdeal(3, tuple(variable(i, 3) for i in range(3)))
    degrees = []
    true_dim = poly.graded_piece_dim

    def counted(ideal, d, mode="exact"):
        degrees.append(d)
        return true_dim(ideal, d, mode=mode)

    monkeypatch.setattr(poly, "graded_piece_dim", counted)
    records = hilbert_records(maximal, 6, mode=mode)
    assert degrees == [0, 1]
    assert records == [(0, 0, 1)] + [(d, math.comb(2 + d, d), 0) for d in range(1, 7)]
    degrees.clear()
    assert all(all(check[1:]) for check in verify_macaulay(maximal, 6, mode=mode))
    assert degrees == [0, 1]


@pytest.mark.parametrize("ideal", [
    CYCLOTOMIC,
    GradedIdeal(3, (HomogPoly(3, 2, {(2, 0, 0): Fraction(3, 2), (0, 1, 1): Fraction(-9, 4), (0, 0, 2): 6}),
                    HomogPoly(3, 1, {(1, 0, 0): GaussianRational(1, 2), (0, 1, 0): 3}),
                    HomogPoly(3, 2, {(0, 2, 0): 2, (1, 0, 1): Fraction(4, 3)}))),
])
def test_a_second_pass_on_one_ideal_gives_the_same_values(ideal):
    """The converted generators are cached on the ideal; a pass must leave
    them as it found them, which a fresh equal ideal shows."""
    fresh = GradedIdeal(ideal.n_vars, ideal.generators)
    first = verify_macaulay(ideal, 6, mode="modular-checked")
    assert verify_macaulay(ideal, 6) == first
    assert hilbert_records(ideal, 6) == hilbert_records(fresh, 6)


@pytest.mark.parametrize("mode", ["exact", "modular-checked"])
def test_no_polynomial_is_built_past_parsing(capsys, monkeypatch, tmp_path, mode):
    """(z1 + z2, 2z1 + 2z2, z1^2 + z1 z2, z2^2 + z1 z3): the four parsed
    generators are the only ``HomogPoly`` objects a Hilbert table builds;
    the reduced generators z1 + z2 and z2^2 - z2 z3 stay in the matrix
    path's format."""
    terms = [[("1", [1, 0, 0]), ("1", [0, 1, 0])], [("2", [1, 0, 0]), ("2", [0, 1, 0])],
             [("1", [2, 0, 0]), ("1", [1, 1, 0])], [("1", [0, 2, 0]), ("1", [1, 0, 1])]]
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({"n_vars": 3, "generators": [[{"coeff": c, "exponents": e} for c, e in g] for g in terms]}))
    built = []
    true_init = HomogPoly.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        true_init(self, *args, **kwargs)

    monkeypatch.setattr(HomogPoly, "__init__", counted)
    assert main(["--format", "structured", "hilbert", str(path), "--d-max", "6", "--mode", mode]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["h_ideal"] == [0, 1, 4, 8, 13, 19, 26]
    assert len(built) == 4
