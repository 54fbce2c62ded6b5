"""Shared helpers for the test suite."""

from fractions import Fraction

import numpy as np
from scipy.linalg import lu_factor, lu_solve


def load_csv(path):
    """Read one of our CSVs: returns (comment lines, list of row dicts)."""
    notes = []
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            notes.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return notes, rows


def frac(text):
    """Parse '1/128' style labels to float."""
    return float(Fraction(text))


def dense_level_solve(problem, ops, p_matrix, cfg, t_n, u_prev):
    """One level on the dense N x N form the stepper solved before its spline form.

    The collocation identity L q + c*u - H g = E b with
    b = (u - u_prev)/(tau mu) + (nu/mu) P u - (eta/mu)(lambda u + F_n(u_tilde)),
    solved for [u_x(a), u_x(b), u_2, ..., u_{N-1}] by one LU and the lagged
    corrector.  Returns (u, q_left, q_right, passes).  A test reference only.
    """
    tau = cfg.tau
    nu, mu, eta = (float(f(t_n)) for f in (problem.coeffs.nu, problem.coeffs.mu,
                                           problem.coeffs.eta))
    n = u_prev.size
    g_left, g_right = float(problem.bc_left(t_n)), float(problem.bc_right(t_n))
    implicit_scale = 1.0 / (tau * mu) - eta * problem.reaction.linear_slope / mu
    w = (np.diag(ops.free_terms) - implicit_scale * ops.e_matrix
         - (nu / mu) * ops.e_matrix @ p_matrix)
    factorization = lu_factor(
        np.column_stack([ops.l_matrix[:, 0], ops.l_matrix[:, 1], w[:, 1:n - 1]]))
    rhs_fixed = (ops.h_matrix @ np.array([g_left, g_right])
                 - (ops.e_matrix @ u_prev) / (tau * mu)
                 - w[:, 0] * g_left - w[:, -1] * g_right)

    u_tilde, u_last = u_prev, None
    for passes in range(1, cfg.max_corrector_iters + 1):
        rhs = rhs_fixed - (eta / mu) * (ops.e_matrix @ problem.reaction.nonlinear(u_tilde))
        z = lu_solve(factorization, rhs)
        u_new = np.concatenate([[g_left], z[2:], [g_right]])
        if u_last is not None and np.max(np.abs(u_new - u_last)) <= cfg.epsilon:
            return u_new, z[0], z[1], passes
        u_tilde = u_last = u_new
    raise AssertionError(f"dense reference corrector stalled at t = {t_n}")
