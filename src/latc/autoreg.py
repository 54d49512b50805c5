"""Autoregressive regularization: lag structure, penalty, closed-form solves.

Each sensor series ``z`` of length ``T`` is scored by the squared
residual of an AR model over the lag set ``H = (h_1 < ... < h_d)``:
``sum_t (z[t] - sum_i a_i * z[t - h_i])**2`` for ``t`` ranging over the
last ``T - h_d`` steps.  Writing the residual as ``B @ z`` with a banded
matrix ``B`` turns the regularized subproblem

    minimize  ||B @ z||^2 + alpha * ||z - x||^2

into the SPD linear system ``(B.T @ B + alpha * I) z = alpha * x``.
``B.T @ B`` has bandwidth ``h_d``, so the system is assembled directly
in banded storage, one ``(h_d + 1, T)`` band per row of an ``(M, T)``
matrix of series, and solved with LAPACK's banded Cholesky pair
``pbtrf``/``pbtrs``.  The system depends only on the coefficients and
``alpha``, so :func:`factor_z_matrix` factors every row once and
:func:`solve_z_matrix` reuses the factors for any number of right-hand
sides.  At most ``Z_FACTOR_BUDGET`` bytes of factors are kept; rows
beyond it are refactored into one scratch band on every solve, by the
same routines, so a row's result does not depend on which side of the
budget it falls.
:func:`update_coefficients` refits the coefficients of every row by
minimum-norm least squares with the fixed cutoff ``LSTSQ_RCOND``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

# Relative cutoff below which a singular value of the lagged regressors
# counts as zero in the coefficient refit.
LSTSQ_RCOND = 1e-10
# Bytes of band factors that factor_z_matrix keeps.  At 64 MiB, an
# (80, 2700) or (50, 2016) matrix with lags up to 6 caches every row, and a
# (214, 8784) one about two thirds of its rows.
Z_FACTOR_BUDGET = 64 * 2**20

_pbtrf, _pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


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


def _gram_band(a: np.ndarray, lag: LagStructure, band: np.ndarray) -> None:
    """Write the lower-banded storage of ``B.T @ B`` for one series into ``band``.

    ``B`` has rows ``t = 0..n_residuals-1`` with entry ``+1`` at column
    ``t + max_lag`` and ``-a_i`` at ``t + max_lag - h_i``; the Gram
    matrix only has diagonals with offset at most ``max_lag``.
    """
    h, n = lag.max_lag, lag.n_residuals
    offsets = [h] + [h - hi for hi in lag.lags]
    coeffs = [1.0] + [-float(ai) for ai in a]
    band[...] = 0.0
    for ck, ok in zip(coeffs, offsets):
        for cl, ol in zip(coeffs, offsets):
            if ok < ol:
                continue
            band[ok - ol, ol : ol + n] += ck * cl


def _factor_band(a: np.ndarray, lag: LagStructure, alpha: float, band: np.ndarray) -> None:
    """Overwrite the Fortran-ordered ``band`` with the lower Cholesky
    factor of ``B.T @ B + alpha * I``."""
    _gram_band(a, lag, band)
    band[0] += alpha
    # Also catches finite coefficients whose products overflow.
    if not np.isfinite(band).all():
        raise np.linalg.LinAlgError(
            f"Z-step system is not finite for coefficients {a.tolist()}"
        )
    info = _pbtrf(band, lower=1, overwrite_ab=1)[1]
    if info != 0:
        raise np.linalg.LinAlgError(
            f"banded Z-step system is not positive definite (LAPACK pbtrf info {info})"
        )


@dataclass(frozen=True)
class ZFactors:
    """The Z-step systems of an ``(M, T)`` series matrix, factored.

    Row ``m`` is ``B_m.T @ B_m + alpha * I`` with ``B_m`` built from
    ``coefficients[m]``.  ``cached[m].T`` is the lower banded Cholesky
    factor of row ``m`` for the first ``len(cached)`` rows, which fit in
    ``Z_FACTOR_BUDGET``; :func:`solve_z_matrix` factors the other rows
    again on every call.
    """

    coefficients: np.ndarray
    lag: LagStructure
    alpha: float
    cached: np.ndarray


def factor_z_matrix(A: np.ndarray, lag: LagStructure, alpha: float) -> ZFactors:
    """Factor the Z-step system of every row of the coefficient matrix ``A``.

    ``alpha`` must be positive and finite.  Every system is symmetric
    positive definite; one that is not finite, or whose factorization
    still fails in floating point, raises ``numpy.linalg.LinAlgError``.
    The factors of the leading rows are kept, as many as fit in
    ``Z_FACTOR_BUDGET`` bytes.
    """
    # A copy, so factored and refactored rows always share one system.
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != lag.order:
        raise ValueError(f"coefficients shape {A.shape} does not match (M, {lag.order})")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    band_bytes = (lag.max_lag + 1) * lag.length * A.itemsize
    rows = min(A.shape[0], Z_FACTOR_BUDGET // band_bytes)
    # Row-major (rows, T, max_lag + 1): each cached[m].T is a Fortran-ordered
    # band that LAPACK factors and reads in place.
    cached = np.empty((rows, lag.length, lag.max_lag + 1))
    for m in range(rows):
        _factor_band(A[m], lag, alpha, cached[m].T)
    return ZFactors(coefficients=A, lag=lag, alpha=alpha, cached=cached)


def solve_z_matrix(X: np.ndarray, factors: ZFactors) -> np.ndarray:
    """Solve ``(B_m.T @ B_m + alpha * I) z_m = alpha * x_m`` for every row ``m``.

    Row ``m`` of ``X`` is one series, solved on the system of row ``m``
    of ``factors`` from :func:`factor_z_matrix`.  Rows whose factor is
    cached take two banded triangular solves; the others are factored
    first, into one scratch band reused from row to row.
    """
    lag, alpha, cached = factors.lag, factors.alpha, factors.cached
    X, A = _check_series_matrix(X, lag, factors.coefficients)
    if not np.isfinite(X).all():
        raise np.linalg.LinAlgError("series matrix must be finite")
    Z = alpha * X
    scratch = np.empty((lag.length, lag.max_lag + 1)).T
    for m, z in enumerate(Z):
        if m < len(cached):
            band = cached[m].T
        else:
            band = scratch
            _factor_band(A[m], lag, alpha, band)
        # z is a contiguous row of Z, so LAPACK solves in place and the copy is a no-op.
        z[:], info = _pbtrs(band, z, lower=1, overwrite_b=1)
        if info != 0:
            raise ValueError(f"LAPACK pbtrs rejected its arguments (info {info})")
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
