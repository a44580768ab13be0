"""Tests for the brute-force references and seeded generators."""

import pytest

from macaulay import oracle
from macaulay.binom import macaulay_rep
from macaulay.hermitian import (
    biform_from_squares,
    biform_signature,
    is_sum_of_squares,
    multiply_norm_power,
)
from macaulay.oracle import (
    CorpusSpec,
    SplitMix64,
    four_square,
    lex_growth_report,
    lex_segment_ideal,
    random_corpus,
    random_hermitian_instance,
    sos_witness,
)
from macaulay.poly import GradedIdeal, exact_rank, graded_piece_dim, monomial_poly, variable
from references import (
    brute_hilbert_monomial,
    brute_rep_oracle,
    exhaustive_monomial_corpus,
    integer_rows,
    random_invertible_matrix,
    random_sos_instance,
)


def test_splitmix64_reference_sequence():
    # pinned output of the standard algorithm; guards cross-platform and
    # cross-version determinism of every seeded corpus
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_brute_rep_oracle_agrees_with_greedy():
    assert brute_rep_oracle(3, 3).terms == ((3, 3), (2, 2), (1, 1))
    assert brute_rep_oracle(0, 2).terms == ()
    # the representation of 10 at index 2 is the single term C(5,2)
    assert brute_rep_oracle(10, 2).terms == ((5, 2),)
    for n in range(1, 5):
        for a in range(0, 300):
            assert brute_rep_oracle(a, n) == macaulay_rep(a, n)


def test_brute_rep_oracle_caps():
    with pytest.raises(ValueError):
        brute_rep_oracle(200_000, 3)
    with pytest.raises(ValueError):
        brute_rep_oracle(10, 9)


def test_brute_hilbert_monomial_worked_values():
    z1, z2 = variable(0, 2), variable(1, 2)
    assert brute_hilbert_monomial(GradedIdeal(2, (z1,)), 3) == 3
    assert brute_hilbert_monomial(GradedIdeal(2, (z1, z2)), 2) == 3
    assert brute_hilbert_monomial(GradedIdeal(2, (monomial_poly((1, 1)),)), 2) == 1
    with pytest.raises(ValueError):
        brute_hilbert_monomial(GradedIdeal(2, (z1 + z2,)), 2)


def test_lex_segment_ideal_worked_values():
    assert [g.terms for g in lex_segment_ideal(2, 2, 1).generators] == [{(2, 0): 1}]
    assert [next(iter(g.terms)) for g in lex_segment_ideal(2, 2, 2).generators] == [(2, 0), (1, 1)]
    assert [next(iter(g.terms)) for g in lex_segment_ideal(3, 1, 2).generators] == [(1, 0, 0), (0, 1, 0)]
    with pytest.raises(ValueError):
        lex_segment_ideal(2, 2, 4)


def test_lex_growth_report_two_variables_all_tight():
    report = lex_growth_report(2, 2)
    assert report["total"] == 3
    assert report["tight"] == 3
    assert all(case["h_d"] == case["k"] for case in report["cases"])


def test_lex_growth_report_builds_one_graded_piece_per_case(monkeypatch):
    """H_I(d) = k is not measured: one variable is refused before any
    elimination, and each case builds just its piece at d + 1.  The value
    the report states is still the measured one."""
    calls = []
    true_dim = oracle.graded_piece_dim

    def counted(ideal, d, mode="exact"):
        calls.append(d)
        return true_dim(ideal, d, mode=mode)

    monkeypatch.setattr(oracle, "graded_piece_dim", counted)
    with pytest.raises(ValueError):
        lex_growth_report(1, 3)
    assert calls == []
    lex_growth_report(3, 2)
    assert calls == [3] * 6
    for n in (2, 3):
        for d in (1, 2, 3):
            for case in lex_growth_report(n, d)["cases"]:
                assert case["h_d"] == true_dim(lex_segment_ideal(n, d, case["k"]), d)


def test_corpus_determinism_and_size():
    spec = CorpusSpec(n_vars=(2, 3), gens=(1, 2), degrees=(1, 2), d_max=3, seed=42, draws=2)
    first = random_corpus(spec)
    second = random_corpus(spec)
    assert first == second
    # kinds x draws x n_vars range x gens range
    assert len(first) == 2 * 2 * 2 * 2
    other = random_corpus(CorpusSpec(n_vars=(2, 3), gens=(1, 2), degrees=(1, 2), d_max=3, seed=43, draws=2))
    assert other != first


def test_corpus_respects_ranges():
    spec = CorpusSpec(n_vars=(2, 2), gens=(1, 1), degrees=(1, 1), d_max=2, seed=9, draws=5)
    for ideal in random_corpus(spec):
        assert ideal.n_vars == 2
        assert len(ideal.generators) == 1
        assert all(g.degree == 1 for g in ideal.generators)


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(n_vars=(3, 2), gens=(1, 1), degrees=(1, 1), d_max=2, seed=0)
    with pytest.raises(ValueError):
        CorpusSpec(n_vars=(2, 2), gens=(1, 1), degrees=(1, 1), d_max=2, seed=0, kinds=("weird",))


def test_corpus_spec_refuses_an_empty_check():
    assert CorpusSpec(n_vars=(2, 2), gens=(1, 1), degrees=(1, 1), d_max=2, seed=0).d_max == 2
    for d_max in (1, 0):
        with pytest.raises(ValueError, match="d_max must be >= 2"):
            CorpusSpec(n_vars=(2, 2), gens=(1, 1), degrees=(1, 1), d_max=d_max, seed=0)


def test_exhaustive_monomial_corpus_counts():
    corpus = exhaustive_monomial_corpus()
    # pools: 3 monomials for n=1, 9 for n=2, 19 for n=3
    assert len(corpus) == (3 + 3 + 1) + (9 + 36 + 84) + (19 + 171 + 969)
    assert len({(i.n_vars, tuple(sorted(map(str, (g.terms for g in i.generators))))) for i in corpus}) == len(corpus)


def test_random_hermitian_instance_contract():
    a = random_hermitian_instance(2, 1, seed=5)
    b = random_hermitian_instance(2, 1, seed=5)
    assert a == b  # bit identical
    assert a.dim == 2
    assert random_hermitian_instance(3, 2, seed=5).dim == 6
    assert random_hermitian_instance(2, 1, seed=6) != a


def test_random_invertible_matrix_is_invertible():
    for seed in range(8):
        dim = 2 + seed % 4
        c = random_invertible_matrix(dim, seed=seed)
        rows = integer_rows([{j: v for j, v in enumerate(row) if v} for row in c])
        assert exact_rank(rows) == dim


def test_four_square():
    for n in (0, 1, 2, 3, 7, 12, 56, 123, 9999):
        parts = four_square(n)
        assert sum(x * x for x in parts) == n
    with pytest.raises(ValueError):
        four_square(10**9)


def test_sos_witness_reconstructs_psd_forms():
    form = biform_from_squares(2, 1, [variable(0, 2), variable(1, 2)])
    tripled = biform_from_squares(
        2, 2, [monomial_poly((2, 0)), monomial_poly((2, 0)), monomial_poly((2, 0)), monomial_poly((1, 1))]
    )
    for target in (form, tripled):
        witnesses = sos_witness(target)
        assert witnesses is not None
        assert biform_from_squares(target.n_vars, target.half_degree, witnesses) == target
    indefinite = biform_from_squares(2, 1, [variable(0, 2)], [variable(1, 2)])
    assert sos_witness(indefinite) is None


def test_random_sos_instance_contract():
    seen_mixed = False
    for seed in range(12):
        for (n, d, l) in [(2, 2, 1), (3, 2, 1), (2, 2, 2)]:
            inst = random_sos_instance(n, d, l, seed=seed * 37 + n + d + l)
            assert not inst.is_zero()
            assert is_sum_of_squares(multiply_norm_power(inst, l))
            assert random_sos_instance(n, d, l, seed=seed * 37 + n + d + l) == inst
            if biform_signature(inst).q > 0:
                seen_mixed = True
    assert seen_mixed  # the generator must produce genuinely mixed signatures


def test_oracle_equivalence_on_sampled_corpus():
    corpus = exhaustive_monomial_corpus(max_vars=2, max_gens=2, max_degree=3)
    for ideal in corpus:
        for d in range(0, 5):
            assert graded_piece_dim(ideal, d) == brute_hilbert_monomial(ideal, d)
