"""Exact-arithmetic toolkit for bounded integer matrices whose every
maximal square submatrix is invertible, and for the things that property
buys: brute-force-exact sparse integer recovery, degeneracy search, and
hyperplane covers of integer grids.
"""

from .attack import AttackConfig, attack_params, find_collision
from .construct import (
    BoundsReport,
    ConstructionParams,
    ScaleSearchResult,
    bounds_report,
    construct,
    construct_scaled,
    construct_vandermonde,
    construct_width,
    dirichlet_scale,
    find_prime_in,
    max_width,
)
from .cover import (
    CoverCheck,
    CoverInstance,
    columns_on_hyperplane,
    cover_lower_bound,
    min_cover_bruteforce,
    verify_cover,
)
from .errors import BudgetExceededError
from .linalg import (
    IntMatrix,
    centered_residue,
    combination_vector,
    det_exact,
    select_columns,
)
from .recover import (
    DecodeResult,
    Measurement,
    SparseSignal,
    decode,
    encode,
    guarantee_holds,
    scale_matrix,
)
from .verify import (
    CertificateCheck,
    DegeneracyCertificate,
    VerificationReport,
    verify_certificate,
    verify_exhaustive,
    verify_sampled,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "BoundsReport",
    "BudgetExceededError",
    "CertificateCheck",
    "ConstructionParams",
    "CoverCheck",
    "CoverInstance",
    "DecodeResult",
    "DegeneracyCertificate",
    "IntMatrix",
    "Measurement",
    "ScaleSearchResult",
    "SparseSignal",
    "VerificationReport",
    "attack_params",
    "bounds_report",
    "centered_residue",
    "columns_on_hyperplane",
    "combination_vector",
    "construct",
    "construct_scaled",
    "construct_vandermonde",
    "construct_width",
    "cover_lower_bound",
    "decode",
    "det_exact",
    "dirichlet_scale",
    "encode",
    "find_collision",
    "find_prime_in",
    "guarantee_holds",
    "max_width",
    "min_cover_bruteforce",
    "scale_matrix",
    "select_columns",
    "verify_certificate",
    "verify_cover",
    "verify_exhaustive",
    "verify_sampled",
]
