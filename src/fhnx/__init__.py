"""fhnx: exact solutions of the FitzHugh-Nagumo reaction-diffusion system,
with residual verification, linear stability analysis and an independent
finite-difference cross-check."""

__version__ = "0.1.0"

from .core import (
    BlowUp,
    BranchMismatch,
    ComplexResult,
    ConfigError,
    CflViolation,
    ConvergenceError,
    FhnxError,
    Grid,
    InsufficientSignal,
    ModulusOutOfRange,
    NonPositiveParameter,
    OutOfDomain,
    Params,
    SingularParameter,
    g,
    g_prime,
)
from .simulate import SimConfig, convergence_study, run
from .solutions import (
    FAMILY_TAGS,
    FixedPoint,
    eval_fixed_point_closed_form,
    family_catalog,
    fixed_points,
    make_family,
    nonclassical_k,
)
from .specfn import jacobi_cn_dn, jacobi_sn
from .stability import classify, dispersion_sweep, jacobian_at
from .verify import (
    ResidualReport,
    check_ansatz_constraints,
    invariant_surface_check,
    residual_system,
    residual_third_order,
)

__all__ = [
    "__version__",
    "BlowUp",
    "BranchMismatch",
    "ComplexResult",
    "ConfigError",
    "CflViolation",
    "ConvergenceError",
    "FhnxError",
    "Grid",
    "InsufficientSignal",
    "ModulusOutOfRange",
    "NonPositiveParameter",
    "OutOfDomain",
    "Params",
    "SingularParameter",
    "g",
    "g_prime",
    "SimConfig",
    "convergence_study",
    "run",
    "FAMILY_TAGS",
    "FixedPoint",
    "eval_fixed_point_closed_form",
    "family_catalog",
    "fixed_points",
    "make_family",
    "nonclassical_k",
    "jacobi_cn_dn",
    "jacobi_sn",
    "classify",
    "dispersion_sweep",
    "jacobian_at",
    "ResidualReport",
    "check_ansatz_constraints",
    "invariant_surface_check",
    "residual_system",
    "residual_third_order",
]
