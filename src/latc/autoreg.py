"""Autoregressive regularization: lag structure, penalty, closed-form solves.

Each sensor series ``z`` of length ``T`` is scored by the squared
residual of an AR model over the lag set ``H = (h_1 < ... < h_d)``:
``sum_t (z[t] - sum_i a_i * z[t - h_i])**2`` for ``t`` ranging over the
last ``T - h_d`` steps.  Writing the residual as ``B @ z`` with a banded
matrix ``B`` turns the regularized subproblem

    minimize  ||B @ z||^2 + alpha * ||z - x||^2

into the SPD linear system ``(B.T @ B + alpha * I) z = alpha * x``.
Adding the ``h = h_d`` rows that wrap the filter around the end of the
series makes ``B`` a circulant ``B_c``, which the FFT diagonalizes: the
system is ``C - W @ W.T`` with ``C = B_c.T @ B_c + alpha * I`` and ``W``
the transposed wrap rows, which touch only the first and last ``h``
columns.  By the Woodbury identity every row of an ``(M, T)`` matrix of
series is then solved at once, with one ``rfft``/``irfft`` pair and one
``h x h`` matrix ``S = I - W.T @ C^-1 @ W`` per row, which
:func:`factor_z_matrix` factors once for any number of right-hand sides
of :func:`solve_z_matrix`.  Against a dense solve the relative error is
about ``2e-12`` at most for ``alpha >= 0.1``, growing as ``alpha``
falls, to about ``3e-9`` at ``1e-4``.
:func:`update_coefficients` refits the coefficients of every row at once
from the normal equations of its least-squares problem.  Their ``d x d``
Gram matrices come from the ``h + 1`` or fewer full-length products
``sum_u z[u] * z[u + k]``, one for each difference ``k`` of two members
of ``{0} U H``, less the at most ``h`` edge terms that fall outside the
residual window; no tall regressor matrix is formed.  A batched ``eigh``
gives the minimum-norm solution, with eigenvalues at most
``GRAM_RCOND`` times the largest treated as zero.  Rounding in the
normal equations costs about ``eps * cond(V)**2`` relative against a
least-squares solve on the regressors ``V``: up to ``1e-10`` at the
``cond(V)`` of a few hundred measured on traffic-like series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative cutoff at or below which an eigenvalue of a row's Gram matrix counts
# as zero in the coefficient refit: singular values of the lagged regressors
# below 1e-6 of the largest.
GRAM_RCOND = 1e-12


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


def _phases(rows: np.ndarray, cols: np.ndarray, length: int) -> np.ndarray:
    """``exp(-2j * pi * r * k / length)`` for every ``r`` in ``rows`` and ``k``
    in ``cols``, with ``r * k`` reduced modulo ``length`` in integers first."""
    return np.exp(np.outer(rows, cols) % length * (-2j * np.pi / length))


@dataclass(frozen=True)
class ZFactors:
    """The Z-step systems of an ``(M, T)`` series matrix, factored.

    Row ``m`` is ``B_m.T @ B_m + alpha * I = C_m - W_m @ W_m.T`` with
    ``B_m`` built from ``coefficients[m]``.  ``gain[m]`` holds
    ``alpha`` over the eigenvalues of the circulant ``C_m`` at the
    frequencies of ``numpy.fft.rfft``, and ``correction[m]`` is
    ``W_m @ inv(S_m) @ W_m.T / alpha`` on the wrap columns, the first
    and last ``max_lag``.  ``to_wrap`` takes the real view of a half
    spectrum to the series values at those columns, and ``from_wrap``
    takes such values to the real view of their half spectrum; both
    depend only on ``lag``.
    """

    coefficients: np.ndarray
    lag: LagStructure
    alpha: float
    gain: np.ndarray
    correction: np.ndarray
    to_wrap: np.ndarray
    from_wrap: np.ndarray


def factor_z_matrix(A: np.ndarray, lag: LagStructure, alpha: float) -> ZFactors:
    """Factor the Z-step system of every row of the coefficient matrix ``A``.

    ``alpha`` must be positive and finite.  Every system is symmetric
    positive definite with smallest eigenvalue ``alpha``.  One that is
    not finite, whose largest eigenvalue times the machine epsilon
    reaches ``alpha``, or whose Woodbury matrix ``S`` fails its
    Cholesky factorization raises ``numpy.linalg.LinAlgError``.
    """
    # A copy, so the factors never change with the caller's array.
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != lag.order:
        raise ValueError(f"coefficients shape {A.shape} does not match (M, {lag.order})")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    T, h = lag.length, lag.max_lag
    freqs = np.arange(T // 2 + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        # Frequency response 1 - sum_i a_i exp(-2j pi k h_i / T) of each row's B_c.
        response = 1.0 - (A @ _phases(lag.lags, freqs, T).view(float)).view(complex)
        eig = response.real**2 + response.imag**2 + alpha
    if not np.isfinite(eig).all():
        raise np.linalg.LinAlgError("Z-step system is not finite for these coefficients")
    # B.T @ B has rank at most T - h, so alpha is the system's smallest
    # eigenvalue, and max(eig) bounds its largest.
    if (eig.max(axis=1, initial=0.0) * np.finfo(float).eps >= alpha).any():
        raise np.linalg.LinAlgError(f"Z-step system is numerically singular at alpha {alpha}")
    cols = np.unique(np.r_[0:h, T - h : T])
    # W[m][:, s] is wrap row s of B_c: 1 at column s, -a_i at (s - h_i) mod T.
    W = np.zeros((A.shape[0], len(cols), h))
    wrap = np.arange(h)
    W[:, np.searchsorted(cols, wrap), wrap] = 1.0
    for i, hi in enumerate(lag.lags):
        W[:, np.searchsorted(cols, (wrap - hi) % T), wrap] = -A[:, i : i + 1]
    # irfft counts every frequency but 0 and T / 2 twice.
    weights = np.where((freqs == 0) | (2 * freqs == T), 1.0, 2.0) / T
    # C^-1 is symmetric circulant, so entry (j, l) is its first column at
    # d = min(|j - l|, T - |j - l|) < 2 * h; only those entries are summed.
    first = (1.0 / eig) @ (_phases(np.arange(2 * h), freqs, T).real * weights).T
    offsets = np.abs(cols[:, None] - cols)
    c_inv = first[:, np.minimum(offsets, T - offsets)]
    S = np.eye(h) - W.transpose(0, 2, 1) @ c_inv @ W
    R = W @ np.linalg.inv(np.linalg.cholesky(S)).transpose(0, 2, 1)
    phases = _phases(cols, freqs, T)
    return ZFactors(
        coefficients=A,
        lag=lag,
        alpha=alpha,
        gain=alpha / eig,
        correction=R @ R.transpose(0, 2, 1) / alpha,
        to_wrap=(phases * weights).view(float).T,
        from_wrap=phases.view(float),
    )


def solve_z_matrix(X: np.ndarray, factors: ZFactors) -> np.ndarray:
    """Solve ``(B_m.T @ B_m + alpha * I) z_m = alpha * x_m`` for every row ``m``.

    Row ``m`` of ``X`` is solved on the system of row ``m`` of ``factors``
    from :func:`factor_z_matrix` as ``u + C^-1 @ W @ inv(S) @ W.T @ u``
    with ``u = alpha * C^-1 @ x``, the Woodbury identity.  Each row is
    first scaled by the power of two that brings its largest magnitude
    into ``[0.5, 1)``, which is exact, so no transform overflows.
    """
    X, _ = _check_series_matrix(X, factors.lag, factors.coefficients)
    if not np.isfinite(X).all():
        raise np.linalg.LinAlgError("series matrix must be finite")
    exponent = np.frexp(np.max(np.abs(X), axis=1, initial=0.0))[1][:, None]
    spectrum = np.fft.rfft(np.ldexp(X, -exponent))
    # u = alpha * C^-1 @ x at the wrap columns.
    u = (spectrum * factors.gain).view(float) @ factors.to_wrap
    w = np.einsum("mij,mj->mi", factors.correction, u)
    spectrum += (w @ factors.from_wrap).view(complex)
    spectrum *= factors.gain
    return np.ldexp(np.fft.irfft(spectrum, n=factors.lag.length), exponent)


def update_coefficients(Z: np.ndarray, lag: LagStructure) -> np.ndarray:
    """Least-squares AR coefficients for every series.

    Row ``m`` solves ``min_a || V_m a - z_m[max_lag:] ||`` where column
    ``i`` of ``V_m`` holds the series lagged by ``lags[i]``, through the
    normal equations ``V_m.T @ V_m a = V_m.T @ z_m[max_lag:]``.  Each row
    is first scaled by the power of two that brings its largest
    magnitude into ``[0.5, 1)``, which is exact and leaves the
    coefficients unchanged, so no product overflows.  The minimum-norm
    solution is taken, with eigenvalues of ``V_m.T @ V_m`` at most
    ``GRAM_RCOND`` times the largest treated as zero, so all-zero series
    give zero coefficients and constant ones ``1 / d`` per lag.  Against
    a least-squares solve on ``V_m`` the result differs by about
    ``eps * cond(V_m)**2`` relative, more if the first and last
    ``max_lag`` steps hold most of the series' energy, since their
    products are subtracted from full-length sums.  Rows with
    ``cond(V_m)`` between about ``1e6`` and ``1e10`` are truncated where
    such a solve at a singular-value cutoff of ``1e-10`` would not be.  A
    series that is not finite raises ``numpy.linalg.LinAlgError``.
    """
    Z = _check_series_matrix(Z, lag)
    # The refit's one (M, T) temporary: |Z|, then the scaled copy of Z.
    scaled = np.abs(Z)
    peak = scaled.max(axis=1, initial=0.0)  # NaN if the row holds one
    if not np.isfinite(peak).all():
        raise np.linalg.LinAlgError("series matrix must be finite")
    T, h = lag.length, lag.max_lag
    Z = np.ldexp(Z, -np.frexp(peak)[1][:, None], out=scaled)
    # Column i of the regression is z[t - offsets[i]] for t in [h, T); column
    # 0 is the target.  Read z as 0 outside [0, T): then the product at
    # k = |o_i - o_j| sums z[t - o_i] * z[t - o_j] over all t in [0, T + h),
    # and row t of `edges` holds z[t - offsets] at the t outside the window,
    # [0, h) and then [T, T + h).
    offsets = np.array((0,) + lag.lags)
    diffs = np.abs(offsets[:, None] - offsets)
    ks = np.unique(diffs)
    full = np.stack([np.einsum("mu,mu->m", Z[:, : T - k], Z[:, k:]) for k in ks], axis=1)
    pad = np.zeros((Z.shape[0], h))
    head = np.concatenate([pad, Z[:, :h]], axis=1)
    tail = np.concatenate([Z[:, T - h :], pad], axis=1)
    rows = h + np.arange(h)[:, None] - offsets
    edges = np.concatenate([head[:, rows], tail[:, rows]], axis=1)
    gram = full[:, np.searchsorted(ks, diffs)] - edges.transpose(0, 2, 1) @ edges
    eig, vec = np.linalg.eigh(gram[:, 1:, 1:])
    # eigh sorts ascending, so the last eigenvalue is the largest.
    keep = eig > GRAM_RCOND * eig[:, -1:]
    inverse = np.divide(1.0, eig, out=np.zeros_like(eig), where=keep)
    projected = np.einsum("mji,mj->mi", vec, gram[:, 1:, 0])
    return np.einsum("mij,mj->mi", vec, inverse * projected)
