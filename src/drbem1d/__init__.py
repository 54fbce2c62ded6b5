"""One-dimensional dual reciprocity boundary element solver for nonlinear
parabolic PDEs of the form u_t + nu(t) u_x - mu(t) u_xx - eta(t) F(u) = 0,
with traveling-wave verification problems, a finite-difference oracle, and
convergence-study tooling."""

from .assembly import (
    DrbemOperators,
    assemble_drbem,
    fundamental_solution,
    fundamental_solution_dx,
    harmonic_identity_check,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DomainError,
    DrbemError,
    SingularMatrixError,
    SolverError,
)
from .problems import (
    CoefficientSet,
    PdeProblem,
    ReactionTerm,
    make_allen_cahn,
    make_fisher,
    make_fitzhugh_nagumo,
    make_generalized_fisher,
    make_generalized_fn,
    make_newell_whitehead,
    residual_check,
)
from .rbf import (
    Grid,
    InterpolationOperator,
    assemble_interpolation,
    interpolation_coefficients,
    phi,
    psi,
    psi_x,
)
from .stepping import (
    SolverState,
    StepConfig,
    TimeLevelSystem,
    Trajectory,
    back_substitution_gap,
    build_level_system,
    corrector_solve,
    run,
)
from .verification import (
    ConvergenceRow,
    ErrorReport,
    compute_errors,
    convergence_study,
    fd_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet",
    "ConfigError",
    "ConvergenceError",
    "ConvergenceRow",
    "DomainError",
    "DrbemError",
    "DrbemOperators",
    "ErrorReport",
    "Grid",
    "InterpolationOperator",
    "PdeProblem",
    "ReactionTerm",
    "SingularMatrixError",
    "SolverError",
    "SolverState",
    "StepConfig",
    "TimeLevelSystem",
    "Trajectory",
    "assemble_drbem",
    "assemble_interpolation",
    "back_substitution_gap",
    "build_level_system",
    "compute_errors",
    "convergence_study",
    "corrector_solve",
    "fd_oracle",
    "fundamental_solution",
    "fundamental_solution_dx",
    "harmonic_identity_check",
    "interpolation_coefficients",
    "make_allen_cahn",
    "make_fisher",
    "make_fitzhugh_nagumo",
    "make_generalized_fisher",
    "make_generalized_fn",
    "make_newell_whitehead",
    "phi",
    "psi",
    "psi_x",
    "residual_check",
    "run",
]
