"""Convolution algebras on finite groups and the circle, representing
maps of orthogonally additive homogeneous polynomials, and
certificate-backed decomposition-norm bounds."""

from .errors import (
    BadExponent,
    DimensionMismatch,
    GroupMismatch,
    HomogeneityViolation,
    IncompleteRegistry,
    NotOrthogonal,
    OapolyError,
    UnderSampled,
    UnsupportedGroup,
    VerificationFailure,
)
from .groups import (
    GroupTable,
    Irrep,
    IrrepRegistry,
    builtin_group,
    builtin_group_by_name,
    validate_group,
    validate_irreps,
)
from .fourier import (
    AlgElement,
    FourierSide,
    banach_norm,
    central_idempotent,
    decompose,
    inverse_fourier,
    l1_norm,
)
from .domains import AlgebraDomain, GroupAlgebra, MatrixAlgebra, PointwiseAlgebra
from .polynomials import (
    HomPoly,
    check_orthogonal_additivity,
    orthogonal_pairs,
    sym_product,
    tensor_of,
)
from .represent import (
    LinearMap,
    phi_group,
    phi_group_blockwise,
    span_check,
    verify_representation,
)
from .certificates import (
    NormBound,
    PnCertificate,
    SnCertificate,
    chain_check,
    pn_bound,
    sn_bound,
    verify_certificate,
)
from .circle import (
    Grid,
    TrigPoly,
    chi,
    convolve_t,
    default_grid,
    diagnostic_analytic_growth,
    diagnostic_dual_growth,
    diagnostic_kernel_blowup,
    fejer,
    fejer_limit_check,
    lp_norm_t,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

# not public API: the benchmark's own tests call oapoly.random_element
from .fourier import random_element  # noqa: E402
