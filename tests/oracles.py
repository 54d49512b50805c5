"""Reference forms of library routines, for cross-checks only.

``svt_exact`` is the thresholding step through a full SVD, the route
the library takes for near-square matrices only.

``solve_z_per_row`` is the Z step that assembles and solves every row's
band anew with ``scipy.linalg.solveh_banded``, and
``impute_per_step_alpha`` is the ADMM loop that calls it in every inner
step with ``alpha = rho / (c * rho)``, exactly as computed per step,
instead of factoring once per outer iteration at ``alpha = 1 / c``.

The AR residual of a series ``z`` is ``B @ z`` with
``B = selector(0) - sum_i a_i * selector(i)``.  The library never forms
these matrices; the tests build them densely to check the banded solve
and the penalty against an independent route.
"""

import numpy as np
from scipy import linalg as sla

from latc import autoreg, solver
from latc.tensors import frobenius_norm, project


def svt_exact(matrix, r, tau):
    """``svt`` through ``numpy.linalg.svd``, on every shape."""
    u, s, vh = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=False)
    s[r:] = np.maximum(s[r:] - tau, 0.0)
    return (u * s) @ vh


def selector(lag, i):
    """Dense ``(n_residuals, length)`` selector matrix.

    ``i = 0`` picks the current values ``z[max_lag:]``; ``i = 1..order``
    picks the values lagged by ``lags[i-1]``.
    """
    if not 0 <= i <= lag.order:
        raise ValueError(f"selector index must be in [0, {lag.order}], got {i}")
    offset = lag.max_lag if i == 0 else lag.max_lag - lag.lags[i - 1]
    n = lag.n_residuals
    out = np.zeros((n, lag.length))
    out[np.arange(n), np.arange(n) + offset] = 1.0
    return out


def lag_stack(lag):
    """Horizontal stack ``[selector(1) | ... | selector(order)]``."""
    return np.hstack([selector(lag, i) for i in range(1, lag.order + 1)])


def solve_z_vectorized(X, A, lag, alpha, max_size=2000):
    """Joint dense solve of the Z step over all series at once.

    Builds the full ``(M*T, M*T)`` system from Kronecker and column-wise
    Kronecker products of the dense selectors and solves it directly.
    Refuses instances with ``M * T > max_size``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    M, T = X.shape
    if M * T > max_size:
        raise ValueError(f"joint system size {M * T} exceeds limit {max_size}")
    eye_m = np.eye(M)
    B = np.kron(eye_m, selector(lag, 0))
    C = np.kron(eye_m, lag_stack(lag)) @ np.kron(sla.khatri_rao(eye_m, A.T), np.eye(T))
    D = B - C
    rhs = alpha * X.reshape(-1)  # row-stacked series
    z = np.linalg.solve(D.T @ D + alpha * np.eye(M * T), rhs)
    return z.reshape(M, T)


def solve_z_per_row(X, A, lag, alpha):
    """The Z step with one ``solveh_banded`` call per row, bands built anew.

    LAPACK's ``pbsv`` behind ``solveh_banded`` is ``pbtrf`` followed by
    ``pbtrs``, so for ``max_lag >= 2`` this equals the library's solve
    bit for bit; for ``max_lag = 1`` scipy takes the tridiagonal
    ``ptsv`` instead.
    """
    Z = np.empty_like(X)
    for m in range(X.shape[0]):
        band = np.empty((lag.max_lag + 1, lag.length))
        autoreg._gram_band(A[m], lag, band)
        band[0] += alpha
        Z[m] = sla.solveh_banded(band, alpha * X[m], lower=True)
    return Z


def impute_per_step_alpha(Y, mask, cfg):
    """``solver.impute`` with the Z step of ``solve_z_per_row`` at
    ``rho / (c * rho)`` in every inner step; returns
    ``(recovered, iterations)``.  ``cfg.c`` must be positive."""
    Y = np.asarray(Y, dtype=float)
    m_dim, i_dim, j_dim = cfg.dims
    lag = autoreg.build_lag_structure(cfg.lags, i_dim * j_dim)
    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.random((m_dim, lag.order)) * solver.COEFF_INIT_SCALE
    rho_max = solver.RHO_MAX_FACTOR * cfg.rho0
    Z = project(Y, mask)
    change_scale = frobenius_norm(Z) or 1.0
    x, dual, rho = Z, np.zeros_like(Z), cfg.rho0
    for outer in range(1, cfg.max_outer_iters + 1):
        prev_x = x
        for _ in range(cfg.inner_iters):
            rho = min(solver.RHO_GROWTH * rho, rho_max)
            x = solver.update_x(Z - dual / rho, cfg, rho)
            z_raw = solve_z_per_row(x + dual / rho, coeffs, lag, rho / (cfg.c * rho))
            dual = dual + rho * (x - z_raw)
            Z = np.where(mask, Y, z_raw)
        coeffs = autoreg.update_coefficients(Z, lag)
        if frobenius_norm(x - prev_x) / change_scale < cfg.tol:
            break
    return np.where(mask, Y, x), outer
