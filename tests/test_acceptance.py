"""Acceptance suite: the package's central guarantees, checked end to end.

Every check here is exact (integer or rational equality, no tolerances).
Each test prints one PASS line with its runtime; run with

    pytest tests/test_acceptance.py -v -s
"""

import time

from macaulay.binom import scan_shift_inequalities, scan_split_shift_identity, shift_apply
from macaulay.hermitian import (
    biform_rank,
    biform_signature,
    hermitian_report,
    is_sum_of_squares,
    multiply_norm_power,
    product_rank_interval,
    sos_max_negative_part,
    sos_min_positive_part,
    sos_rank_interval,
)
from macaulay.oracle import CorpusSpec, random_corpus, random_hermitian_instance
from macaulay.binom import macaulay_rep
from macaulay.poly import bridge_identity_check, graded_piece_dim, verify_macaulay
from references import (
    brute_hilbert_monomial,
    brute_rep_oracle,
    congruence_transform,
    exhaustive_monomial_corpus,
    random_invertible_matrix,
    random_sos_instance,
)


def _report(name: str, started: float, detail: str = "") -> None:
    elapsed = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS in {elapsed:.1f}s{suffix}")


def test_split_shift_identity_exhaustive():
    started = time.time()
    failures = scan_split_shift_identity(6, 6, 3)
    assert failures == [], failures
    _report("split-shift-identity-exhaustive", started, "m,d <= 6, s <= 3, all splits")


def test_bound_equivalence_bridge():
    started = time.time()
    for n in range(2, 6):
        for d in range(1, 6):
            assert bridge_identity_check(n, d), (n, d)
    _report("bound-equivalence-bridge", started, "2 <= n <= 5, 1 <= d <= 5")


def test_growth_bounds_on_corpora():
    started = time.time()
    exhaustive = [i for i in exhaustive_monomial_corpus() if i.n_vars >= 2]
    for ideal in exhaustive:
        for check in verify_macaulay(ideal, 6):
            assert check.forward_ok and check.quotient_ok and check.reverse_ok, ideal
    spec = CorpusSpec(
        n_vars=(2, 4), gens=(1, 3), degrees=(1, 3), d_max=4,
        seed=20260803, draws=23, kinds=("dense",),
    )
    dense = random_corpus(spec)[:200]
    assert len(dense) == 200
    for ideal in dense:
        for check in verify_macaulay(ideal, spec.d_max):
            assert check.forward_ok and check.quotient_ok and check.reverse_ok, ideal
    _report(
        "growth-bounds-corpora", started,
        f"{len(exhaustive)} exhaustive monomial ideals at d_max=6 + 200 random rational ideals",
    )


def test_product_rank_closed_form():
    started = time.time()
    for n in range(2, 7):
        for r in range(1, n):
            assert product_rank_interval(r, n) == (r * n - r * (r - 1), r * n), (r, n)
    _report("product-rank-closed-form", started, "1 <= r <= n-1 <= 5")


def test_product_rank_bounds_random_suite():
    started = time.time()
    checked = 0
    forms = 0
    seed = 0
    holds = {}  # verdict name -> how many times it held
    while forms < 200:
        n = (2, 3, 4)[forms % 3]
        d = 1 + (forms // 3) % 2
        seed += 1
        form = random_hermitian_instance(n, d, seed=seed * 977 + 13)
        if form.is_zero():
            continue
        forms += 1
        for s in range(n + 1):
            outputs, verdicts = hermitian_report(form, (s, n - s), 1)
            assert verdicts["product_rank_bounds"] is True, (n, d, s, seed, outputs)
            assert False not in verdicts.values(), (n, d, s, seed, outputs, verdicts)
            for name, ok in verdicts.items():
                holds[name] = holds.get(name, 0) + (ok is True)
            checked += 1
    assert holds["product_rank_bounds"] == checked
    assert holds["positive_part_bound"] == holds["negative_part_bound"] == holds["sos_rank_interval"] > 0
    _report("product-rank-random-suite", started, f"200 forms, {checked} signed-norm products, {holds}")


def test_sos_bound_suite():
    started = time.time()
    grid = [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 1, 1), (3, 1, 1), (3, 2, 2), (2, 3, 1), (4, 1, 1)]
    mixed_count = 0
    pure_count = 0
    for index in range(100):
        n, d, l = grid[index % len(grid)]
        form = random_sos_instance(n, d, l, seed=index * 1009 + 77)
        sig = biform_signature(form)
        p, q = sig.p, sig.q
        r = p + q
        assert r >= 1
        product = multiply_norm_power(form, l)
        assert is_sum_of_squares(product), (n, d, l, index)
        rank_product = biform_rank(product)

        assert p >= sos_min_positive_part(r, n, l), (n, d, l, index)
        assert q <= sos_max_negative_part(p, n, l), (n, d, l, index)
        low, high = sos_rank_interval(p, q, n, l)
        assert low <= rank_product <= high, (n, d, l, index, rank_product, low, high)
        # one more norm factor must keep the product a sum of squares
        assert is_sum_of_squares(multiply_norm_power(form, l + 1)), (n, d, l, index)
        if q == 0:
            pure_count += 1
            assert shift_apply(p, n - 1, 0, l) <= rank_product, (n, d, l, index)
        else:
            mixed_count += 1
    assert mixed_count >= 20  # the suite must exercise genuinely mixed signatures
    _report("sos-bound-suite", started, f"100 instances: {mixed_count} mixed, {pure_count} positive")


def test_oracle_equivalence():
    started = time.time()
    corpus = exhaustive_monomial_corpus()
    for ideal in corpus:
        for d in range(0, 7):
            assert graded_piece_dim(ideal, d) == brute_hilbert_monomial(ideal, d), (ideal, d)
    for n in range(1, 6):
        for a in range(0, 2001):
            assert macaulay_rep(a, n) == brute_rep_oracle(a, n), (a, n)
    for index in range(100):
        n, d = ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2))[index % 5]
        form = random_hermitian_instance(n, d, seed=index * 31 + 5)
        transform = random_invertible_matrix(form.dim, seed=index * 53 + 11)
        assert form.dim <= 8
        assert biform_signature(congruence_transform(form, transform)) == biform_signature(form), index
    _report(
        "oracle-equivalence", started,
        f"{len(corpus)} monomial ideals, representations to 2000, 100 congruences",
    )


def test_shift_inequality_scans():
    started = time.time()
    failures = scan_shift_inequalities(200, 6, 4)
    assert failures == [], failures
    _report("shift-inequality-scans", started, "m <= 200, n <= 6, shifts <= 4")
