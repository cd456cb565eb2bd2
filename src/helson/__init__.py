"""Multiplicative Hankel (Helson) matrices and the weak-product norm.

The library builds truncated operators M(alpha) = {alpha(nm)} from
generating sequences, computes certified operator norms, constructs
compact approximants as convex combinations of dilated operators, and
evaluates the weak-product (projective tensor) norm under Dirichlet
convolution with primal-dual certificates.
"""

from .errors import (
    DomainError,
    HelsonError,
    InvariantViolation,
)
from .sieve import (
    factor_pairs,
    factorize,
    is_smooth,
    sieve_limit,
    smooth_indices,
    weighted_degree,
)
from .core import (
    HSSum,
    Sequence,
    dilate,
    dilation_hs_sum,
    dilation_weight,
    dirichlet_convolve,
    filter_smooth,
    load_sequence,
    save_sequence,
    sequence_from_triples,
    sequence_to_triples,
)
from .operator import (
    DENSE_CAP,
    HelsonMatrix,
    assemble,
    bilinear_pair,
    dilate_symbol,
    form,
    matrix_to_csv,
    symbol_values,
    truncation_indices,
)
from .spectral import (
    LowerBoundCheck,
    SpectralReport,
    l2_lower_bound_check,
    operator_norm,
)
from .approx import (
    ApproxResult,
    ConvexWeights,
    DiagnosticTable,
    best_convex_approx,
    compactness_diagnostic,
)
from .weakprod import (
    DualityReport,
    GeometricDecay,
    Representation,
    XNormConfig,
    XNormResult,
    duality_gap,
    refine_representation,
    rep_cost,
    representation_from_matrix,
    split_sequence,
    xnorm,
)
from .fixtures import (
    DeltaSymbol,
    FileSymbol,
    MHilbertSymbol,
    PowerSymbol,
    RandomDecaySymbol,
    parse_fixture,
    parse_sequence_arg,
)

__version__ = "0.2.0"

__all__ = [
    "ApproxResult",
    "ConvexWeights",
    "DENSE_CAP",
    "DeltaSymbol",
    "DiagnosticTable",
    "DomainError",
    "DualityReport",
    "FileSymbol",
    "GeometricDecay",
    "HSSum",
    "HelsonError",
    "HelsonMatrix",
    "InvariantViolation",
    "LowerBoundCheck",
    "MHilbertSymbol",
    "PowerSymbol",
    "RandomDecaySymbol",
    "Representation",
    "Sequence",
    "SpectralReport",
    "XNormConfig",
    "XNormResult",
    "assemble",
    "best_convex_approx",
    "bilinear_pair",
    "compactness_diagnostic",
    "dilate",
    "dilate_symbol",
    "dilation_hs_sum",
    "dilation_weight",
    "dirichlet_convolve",
    "duality_gap",
    "factor_pairs",
    "factorize",
    "filter_smooth",
    "form",
    "is_smooth",
    "l2_lower_bound_check",
    "load_sequence",
    "matrix_to_csv",
    "operator_norm",
    "parse_fixture",
    "parse_sequence_arg",
    "refine_representation",
    "rep_cost",
    "representation_from_matrix",
    "save_sequence",
    "sequence_from_triples",
    "sequence_to_triples",
    "sieve_limit",
    "smooth_indices",
    "split_sequence",
    "symbol_values",
    "truncation_indices",
    "weighted_degree",
    "xnorm",
]
