"""Error types shared across the solver library and the CLI."""


class DrbemError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DrbemError):
    """A run configuration failed to parse or validate."""

    def __init__(self, message, line=None, field=None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field = field


class SolverError(DrbemError):
    """Numerical failure while assembling operators or advancing a solution."""


class DomainError(DrbemError, ValueError):
    """An evaluation left the mathematical domain of a catalog function."""


class SingularMatrixError(SolverError):
    """A factorization met a singular matrix or a pivot below the usable threshold."""


class ConvergenceError(SolverError):
    """The corrector iteration hit its cap without meeting the tolerance."""

    def __init__(self, message, time=None, last_diff=None):
        super().__init__(message)
        self.time = time
        self.last_diff = last_diff
