"""The public contract: the names ``import macaulay`` exports.

Adding or removing an export is a contract change, so it must edit this
list on purpose."""

import types

import macaulay

PUBLIC_NAMES = [
    "BoundChecks", "GaussianRational", "GradedIdeal", "HermitianBiform", "HilbertRecord", "HomogPoly",
    "MacaulayRep", "SignaturePair", "SignedNorm", "SquareTerm",
    "biform_from_squares", "biform_from_terms", "biform_rank", "biform_signature", "binom_coeff",
    "bridge_identity_check", "decompose", "find_min_sos_exponent", "format_biform", "format_ideal",
    "graded_piece_dim", "hermitian_report", "hilbert_record", "hilbert_records", "is_sum_of_squares",
    "macaulay_bound_ideal", "macaulay_bound_quotient", "macaulay_rep", "macaulay_reverse_bound_ideal",
    "monomial_poly", "monomials_of_degree", "multiply_norm_power", "multiply_signed_norm",
    "parse_biform", "parse_ideal", "poly_multiply", "product_rank_interval", "recompose_squares",
    "rep_value", "scan_shift_inequalities", "scan_split_shift_identity", "shift_apply",
    "shift_difference_bound_holds", "shift_monotone_in_value_holds",
    "sos_max_negative_part", "sos_min_positive_part", "sos_rank_interval",
    "variable", "verify_ideal_containment", "verify_macaulay", "zero_biform",
]


def test_the_package_exports_exactly_the_public_names():
    exported = sorted(
        name for name, value in vars(macaulay).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == sorted(PUBLIC_NAMES)
