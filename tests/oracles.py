"""Reference forms of library routines, for cross-checks only.

``svt_exact`` is the thresholding step through a full SVD, the route
the library takes for near-square matrices only.

The AR residual of a series ``z`` is ``B @ z`` with
``B = selector(0) - sum_i a_i * selector(i)``.  The library never forms
these matrices; the tests build them densely to check the banded solve
and the penalty against an independent route.
"""

import numpy as np
from scipy import linalg as sla


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
