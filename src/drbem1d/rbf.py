"""Linear radial basis function, its particular solution, and collocation matrices.

The kernel is phi(r) = 1 + r.  Its particular solution psi satisfies psi'' = phi,
which is what lets inhomogeneous terms be moved onto the interval endpoints.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, lu_solve

from .exceptions import SingularMatrixError

log = logging.getLogger(__name__)

# Pivots below this magnitude signal a degenerate node set.
PIVOT_FLOOR = 1e-14


def phi(r):
    """Kernel value 1 + r at distance r >= 0."""
    return 1.0 + r


def psi(r):
    """r**2/2 + r**3/6, the radial profile whose second derivative is phi."""
    return r * r / 2.0 + r**3 / 6.0


def psi_x(x, xj):
    """d/dx of psi(|x - xj|): odd about xj and zero there."""
    d = x - xj
    return d * (1.0 + np.abs(d) / 2.0)


@dataclass(frozen=True)
class Grid:
    """Ordered collocation nodes x_1 < ... < x_N spanning the working interval."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError(f"a grid needs n >= 3 one-dimensional nodes, got shape {nodes.shape}")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, a, b, n):
        if not float(n).is_integer():
            raise ValueError(f"node count n = {n!r} must be an integer")
        return cls(np.linspace(float(a), float(b), int(n)))

    @classmethod
    def with_spacing(cls, a, b, h):
        """Uniform grid with nominal spacing h; (b - a) must be a whole number of cells."""
        if not 0.0 < h < math.inf:
            raise ValueError(f"spacing h = {h} must be positive and finite")
        cells = (float(b) - float(a)) / float(h)
        n_cells = int(round(cells))
        if n_cells < 2 or abs(cells - n_cells) > 1e-9 * max(1.0, abs(cells)):
            raise ValueError(f"spacing {h} does not evenly divide [{a}, {b}]")
        return cls.uniform(a, b, n_cells + 1)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def h(self) -> float:
        """Nominal spacing (b - a)/(N - 1)."""
        return (self.b - self.a) / (self.n - 1)


@dataclass(frozen=True)
class InterpolationOperator:
    """Dense collocation matrices for the 1 + r kernel with a reusable factorization.

    phi_matrix[i, j] = phi(|x_i - x_j|) and phi_x_matrix[i, j] is the x-derivative
    of the j-th kernel at x_i, i.e. sgn(x_i - x_j) with sgn(0) = 0.
    """

    grid: Grid
    phi_matrix: np.ndarray
    phi_x_matrix: np.ndarray
    factorization: tuple
    cond_estimate: float

    def solve(self, rhs, transposed=False):
        """Apply the inverse of phi_matrix (or of its transpose) to vectors/columns."""
        return lu_solve(self.factorization, rhs, trans=1 if transposed else 0)


def _check_factors(lu, pivots, what):
    """Raise SingularMatrixError naming `what` on a non-finite factor or a pivot
    (a diagonal entry of U) below PIVOT_FLOOR."""
    if not np.isfinite(lu).all():
        raise SingularMatrixError(f"{what} has non-finite LU factors")
    smallest_pivot = float(np.min(np.abs(pivots)))
    if not smallest_pivot >= PIVOT_FLOOR:
        raise SingularMatrixError(
            f"{what} is singular: pivot {smallest_pivot:.3e} below {PIVOT_FLOOR:.0e}"
        )


def lu_factor_checked(matrix, what):
    """LU factors (lu, piv) of a square matrix, as scipy.linalg.lu_factor returns them.

    Calls LAPACK getrf, the routine lu_factor wraps, so the factors are the same
    bits.  A non-finite factor or a pivot below PIVOT_FLOOR raises
    SingularMatrixError naming `what`; no LinAlgWarning is emitted.
    """
    # getrf's info > 0 (an exact zero pivot) is caught by the pivot floor below
    lu, piv, _ = lapack.dgetrf(matrix)
    _check_factors(lu, np.diag(lu), what)
    return lu, piv


def band_lu_factor_checked(band, kl, ku, what):
    """LAPACK gbtrf factors (lu, piv) of a matrix with kl sub- and ku superdiagonals.

    `band` is in gbtrf's layout, shape (2 kl + ku + 1, N): entry (i, j) of the
    matrix sits at band[kl + ku + i - j, j], and the first kl rows are zero
    workspace for the fill-in.  Checked as lu_factor_checked checks.
    """
    lu, piv, _ = lapack.dgbtrf(band, kl, ku)
    _check_factors(lu, lu[kl + ku], what)
    return lu, piv


def assemble_interpolation(grid: Grid) -> InterpolationOperator:
    """Build the kernel matrices over the grid and factor phi_matrix once."""
    x = grid.nodes
    d = x[:, None] - x[None, :]
    phi_matrix = phi(np.abs(d))
    phi_x_matrix = np.sign(d)

    lu, piv = lu_factor_checked(phi_matrix, "interpolation matrix (degenerate node set)")

    anorm = float(np.linalg.norm(phi_matrix, 1))
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    cond_estimate = float(1.0 / rcond) if info == 0 and rcond > 0.0 else float("inf")
    log.debug("interpolation matrix N=%d cond~%.3e", grid.n, cond_estimate)

    phi_matrix.setflags(write=False)
    phi_x_matrix.setflags(write=False)
    return InterpolationOperator(
        grid=grid,
        phi_matrix=phi_matrix,
        phi_x_matrix=phi_x_matrix,
        factorization=(lu, piv),
        cond_estimate=cond_estimate,
    )


def interpolation_coefficients(op: InterpolationOperator, values) -> np.ndarray:
    """Coefficients alpha with phi_matrix @ alpha = values."""
    values = np.asarray(values, dtype=float)
    if values.shape != (op.grid.n,):
        raise ValueError(f"expected {op.grid.n} nodal values, got shape {values.shape}")
    return op.solve(values)
