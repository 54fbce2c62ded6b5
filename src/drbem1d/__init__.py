"""One-dimensional dual reciprocity boundary element solver for nonlinear
parabolic PDEs of the form u_t + nu(t) u_x - mu(t) u_xx - eta(t) F(u) = 0,
with traveling-wave verification problems, a finite-difference oracle, and
convergence-study tooling."""

from .assembly import DrbemOperators, Grid, assemble_drbem
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
from .reference import assemble_interpolation
from .stepping import (
    SolverState,
    StepConfig,
    TimeLevelSystem,
    Trajectory,
    build_level_system,
    corrector_solve,
    run,
)
from .verification import (
    ConvergenceRow,
    ErrorReport,
    compute_errors,
    fd_oracle,
    sweep,
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
    "build_level_system",
    "compute_errors",
    "corrector_solve",
    "fd_oracle",
    "make_allen_cahn",
    "make_fisher",
    "make_fitzhugh_nagumo",
    "make_generalized_fisher",
    "make_generalized_fn",
    "make_newell_whitehead",
    "residual_check",
    "run",
    "sweep",
]
