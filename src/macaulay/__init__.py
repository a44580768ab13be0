"""Exact Macaulay representations, Hilbert function growth bounds, and
Hermitian signature inequalities, all in arbitrary-precision rational
arithmetic."""

from .binom import (
    MacaulayRep,
    binom_coeff,
    macaulay_rep,
    rep_value,
    scan_shift_inequalities,
    scan_split_shift_identity,
    shift_apply,
    shift_difference_bound_holds,
    shift_monotone_in_value_holds,
)
from .hermitian import (
    GaussianRational,
    HermitianBiform,
    SignaturePair,
    SignedNorm,
    SquareTerm,
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
from .poly import (
    BoundChecks,
    GradedIdeal,
    HilbertRecord,
    HomogPoly,
    bridge_identity_check,
    format_ideal,
    graded_piece_dim,
    hilbert_record,
    hilbert_records,
    macaulay_bound_ideal,
    macaulay_bound_quotient,
    macaulay_reverse_bound_ideal,
    monomial_poly,
    monomials_of_degree,
    parse_ideal,
    poly_multiply,
    variable,
    verify_macaulay,
)

__version__ = "0.1.0"
