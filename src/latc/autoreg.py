"""Autoregressive regularization: lag structure, penalty, closed-form solves.

Each sensor series ``z`` of length ``T`` is scored by the squared
residual of an AR model over the lag set ``H = (h_1 < ... < h_d)``:
``sum_t (z[t] - sum_i a_i * z[t - h_i])**2`` for ``t`` ranging over the
last ``T - h_d`` steps.  Writing the residual as ``B @ z`` with a banded
matrix ``B`` turns the regularized subproblem

    minimize  ||B @ z||^2 + alpha * ||z - x||^2

into the SPD linear system ``(B.T @ B + alpha * I) z = alpha * x``.
``B.T @ B`` has bandwidth ``h_d``, so the system is assembled directly
in banded storage and solved with a banded Cholesky factorization.
:func:`solve_z_matrix` solves it for every row of an ``(M, T)`` matrix
of series, one ``(h_d + 1, T)`` band per row.
:func:`update_coefficients` refits the coefficients of every row by
minimum-norm least squares with the fixed cutoff ``LSTSQ_RCOND``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

# Relative cutoff below which a singular value of the lagged regressors
# counts as zero in the coefficient refit.
LSTSQ_RCOND = 1e-10


@dataclass(frozen=True)
class LagStructure:
    """Validated lag set together with the series length it applies to."""

    lags: tuple[int, ...]
    length: int

    @property
    def order(self) -> int:
        """Number of lags ``d``."""
        return len(self.lags)

    @property
    def max_lag(self) -> int:
        return self.lags[-1]

    @property
    def n_residuals(self) -> int:
        """Number of time steps the AR residual is defined on."""
        return self.length - self.max_lag


def build_lag_structure(lags, length: int) -> LagStructure:
    """Validate a lag set against a series length.

    Lags must be strictly increasing positive integers with the largest
    one smaller than ``length``.
    """
    lags = tuple(int(h) for h in lags)
    if len(lags) == 0:
        raise ValueError("lag set must not be empty")
    if lags[0] <= 0:
        raise ValueError(f"lags must be positive, got {lags}")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValueError(f"lags must be strictly increasing, got {lags}")
    length = int(length)
    if lags[-1] >= length:
        raise ValueError(
            f"largest lag {lags[-1]} must be smaller than series length {length}"
        )
    return LagStructure(lags=lags, length=length)


def _check_series_matrix(Z: np.ndarray, lag: LagStructure, A: np.ndarray | None = None):
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != lag.length:
        raise ValueError(f"series matrix shape {Z.shape} != (M, {lag.length})")
    if A is None:
        return Z
    A = np.asarray(A, dtype=float)
    if A.shape != (Z.shape[0], lag.order):
        raise ValueError(
            f"coefficients shape {A.shape} does not match ({Z.shape[0]}, {lag.order})"
        )
    return Z, A


def ar_residual(Z: np.ndarray, A: np.ndarray, lag: LagStructure) -> np.ndarray:
    """Residuals ``z[t] - sum_i a_i z[t-h_i]`` for the last ``T - h_d`` steps.

    Row ``m`` holds the residuals of series ``m``; column ``u``
    corresponds to time step ``u + max_lag``.
    """
    Z, A = _check_series_matrix(Z, lag, A)
    T, h = lag.length, lag.max_lag
    resid = Z[:, h:].copy()
    for i, hi in enumerate(lag.lags):
        resid -= A[:, i : i + 1] * Z[:, h - hi : T - hi]
    return resid


def temporal_variation(Z: np.ndarray, A: np.ndarray, lag: LagStructure) -> float:
    """Sum of squared AR residuals over all series."""
    return float(np.sum(ar_residual(Z, A, lag) ** 2))


def _gram_band(a: np.ndarray, lag: LagStructure) -> np.ndarray:
    """Lower-banded storage of ``B.T @ B`` for one series.

    ``B`` has rows ``t = 0..n_residuals-1`` with entry ``+1`` at column
    ``t + max_lag`` and ``-a_i`` at ``t + max_lag - h_i``; the Gram
    matrix only has diagonals with offset at most ``max_lag``.
    """
    T, h, n = lag.length, lag.max_lag, lag.n_residuals
    offsets = [h] + [h - hi for hi in lag.lags]
    coeffs = [1.0] + [-float(ai) for ai in a]
    band = np.zeros((h + 1, T))
    for ck, ok in zip(coeffs, offsets):
        for cl, ol in zip(coeffs, offsets):
            if ok < ol:
                continue
            band[ok - ol, ol : ol + n] += ck * cl
    return band


def solve_z_matrix(
    X: np.ndarray, A: np.ndarray, lag: LagStructure, alpha: float
) -> np.ndarray:
    """Solve ``(B_m.T @ B_m + alpha * I) z_m = alpha * x_m`` for every row ``m``.

    Row ``m`` of ``X`` is one series and row ``m`` of ``A`` its AR
    coefficients; each row is solved on its own banded system.
    ``alpha`` must be positive, which makes every system symmetric
    positive definite; factorization failures surface as
    ``scipy.linalg.LinAlgError``.
    """
    X, A = _check_series_matrix(X, lag, A)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    Z = np.empty_like(X)
    for m in range(X.shape[0]):
        band = _gram_band(A[m], lag)
        band[0] += alpha
        Z[m] = sla.solveh_banded(band, alpha * X[m], lower=True)
    return Z


def update_coefficients(Z: np.ndarray, lag: LagStructure) -> np.ndarray:
    """Least-squares AR coefficients for every series.

    Each row solves ``min_a || V_m a - z_m[max_lag:] ||`` where column
    ``i`` of ``V_m`` holds the series lagged by ``lags[i]``.  The
    minimum-norm solution is taken, with singular values below
    ``LSTSQ_RCOND`` times the largest treated as zero, so rank-deficient
    regressors (constant or all-zero series) are well-defined.
    """
    Z = _check_series_matrix(Z, lag)
    T, h = lag.length, lag.max_lag
    A = np.zeros((Z.shape[0], lag.order))
    for m in range(Z.shape[0]):
        V = np.column_stack([Z[m, h - hi : T - hi] for hi in lag.lags])
        A[m] = np.linalg.lstsq(V, Z[m, h:], rcond=LSTSQ_RCOND)[0]
    return A
