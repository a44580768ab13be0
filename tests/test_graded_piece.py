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
    kept, skipped = poly._graded_piece_rows(z1z2, 2)
    assert len(kept) == 5
    assert len(kept) + len(list(skipped)) == len(all_multiples(z1z2, 2)) == 6
    assert graded_piece_dim(z1z2, 2) == 5
    # a copy keeps just its multiples by monomials free of z1, the first's lead
    z1_twice = GradedIdeal(2, (monomial_poly((1, 0), Fraction(2)), variable(0, 2)))
    assert [len(poly._graded_piece_rows(z1_twice, d)[0]) for d in (1, 2, 3)] == [2, 3, 4]
    assert [graded_piece_dim(z1_twice, d) for d in (1, 2, 3)] == [1, 2, 3]


def test_modular_checked_catches_a_pruned_needed_row(capsys, monkeypatch, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(format_ideal(GradedIdeal(3, (variable(0, 3), variable(1, 3)))))
    argv = ["hilbert", str(path), "--d-max", "3", "--mode", "modular-checked"]
    assert main(argv) == 0
    capsys.readouterr()
    true_rows = poly._graded_piece_rows

    def prune_one_more(ideal, d):
        kept, skipped = true_rows(ideal, d)
        return kept[1:], iter([*kept[:1], *skipped])

    monkeypatch.setattr(poly, "_graded_piece_rows", prune_one_more)
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
