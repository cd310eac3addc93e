"""Exact-arithmetic toolkit for bounded integer matrices whose every
maximal square submatrix is invertible, and for the things that property
buys: brute-force-exact sparse integer recovery, degeneracy search, and
hyperplane covers of integer grids.
"""

import types

from .attack import AttackConfig, attack_params, find_collision
from .construct import (
    BoundsReport,
    ConstructionParams,
    bounds_report,
    construct,
    construct_scaled,
    construct_vandermonde,
    construct_width,
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
    geometric_structure,
    verify_certificate,
    verify_exhaustive,
    verify_sampled,
)

__version__ = "0.1.0"

# every public name the imports above bind, without the submodules they load
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
