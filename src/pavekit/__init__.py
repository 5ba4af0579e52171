"""pavekit: exact and numerical experiments on diagonal paving of projections.

Library layout:

- ``pavekit.linalg``: frames, projections, diagonal symmetries, compressions,
  and the symmetric operator norm.
- ``pavekit.counterexample``: the structured projection whose compressions
  exceed 2*delta_p for every diagonal symmetry, stored exactly as two
  integer arrays with one column per coordinate class, plus its exact
  certificate in rational arithmetic (``fractions.Fraction``).
- ``pavekit.rearrange``: zero-sum rearrangement and the single-vector
  symmetry achieving ||psp(v)|| <= sqrt(2*delta_p + 3*delta_p^2).
- ``pavekit.paving``: brute-force searches, conjecture instance tests, and
  the seeded scan harness.
- ``pavekit.cli``: the ``pavekit`` command.
"""

__version__ = "0.1.0"

from .linalg import (
    OrthonormalFrame,
    Projection,
    Symmetry,
    SymmetricMatrix,
    apply_psp,
    compress_psp,
    delta_p_numeric,
    operator_norm,
    random_projection,
)
from .counterexample import (
    BasisIndex,
    CertificateReport,
    ExactFrame,
    SignProfile,
    branch_lower_bound,
    build_frame,
    delta_p_exact,
    dimension,
    min_over_symmetries_v0,
    psp_v0_coeffs,
    psp_v0_norm_sq,
    rational_to_str,
    row_norm_sq,
    verify_orthonormal,
)
from .rearrange import (
    SingleVectorResult,
    ZeroSumFamily,
    check_prefix_property,
    greedy_rearrange,
    partial_sum_bound_holds,
    single_vector_symmetry,
)
from .paving import (
    ExperimentRecord,
    ScanConfig,
    brute_force_min,
    brute_force_min_vector,
    conjectureA_test,
    conjectureB_probe,
    paving_pair,
    scan,
)

__all__ = [
    "__version__",
    "OrthonormalFrame",
    "Projection",
    "Symmetry",
    "SymmetricMatrix",
    "apply_psp",
    "compress_psp",
    "delta_p_numeric",
    "operator_norm",
    "random_projection",
    "BasisIndex",
    "CertificateReport",
    "ExactFrame",
    "SignProfile",
    "branch_lower_bound",
    "build_frame",
    "delta_p_exact",
    "dimension",
    "min_over_symmetries_v0",
    "psp_v0_coeffs",
    "psp_v0_norm_sq",
    "rational_to_str",
    "row_norm_sq",
    "verify_orthonormal",
    "SingleVectorResult",
    "ZeroSumFamily",
    "check_prefix_property",
    "greedy_rearrange",
    "partial_sum_bound_holds",
    "single_vector_symmetry",
    "ExperimentRecord",
    "ScanConfig",
    "brute_force_min",
    "brute_force_min_vector",
    "conjectureA_test",
    "conjectureB_probe",
    "paving_pair",
    "scan",
]
