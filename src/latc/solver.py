"""ADMM solver combining truncated-nuclear-norm and AR regularization.

The completion problem couples a low-rank tensor variable with a time
series matrix:

    minimize  ||X||_{r,*} + (lam / 2) * ||Z||_AR
    subject to  X = fold(Z, 1, dims),  Z agrees with Y on observed entries

and is solved by alternating ADMM steps on (X, Z, dual) with the AR
coefficients refit by least squares after every block of
``INNER_ITERS`` inner iterations.  ``lam`` is tied to the ADMM penalty
as ``lam = c * rho``, so the ratio ``rho / lam = 1 / c`` entering the Z
step stays constant while ``rho`` grows geometrically.  With the
coefficients fixed between refits, the Z step's systems are therefore
factored once per outer iteration, at ``alpha = 1 / c``, by
:func:`~latc.autoreg.factor_z_matrix`, and every inner step only runs
the FFT solve of :func:`~latc.autoreg.solve_z_matrix`.  The loop keeps
no ``(M, T)`` array alive across the X step that a later step does not
read.  An iterate that stops being finite, such as a dual that
overflows, raises ``numpy.linalg.LinAlgError`` in the step that made it.

All three iterates are ``(M, T)`` matrices.  ``Z`` is the mode-1
unfolding of the tensor ``fold(Z, 1, dims)``, which is a copy-free view,
so the loop never converts between the two layouts.
:meth:`SolverConfig.validate` checks the lags with
:func:`~latc.autoreg.build_lag_structure` against ``T = I * J``, also
when ``c = 0``, the weights with the rule
:func:`~latc.lowrank.tensor_tnn` uses, ``c``, ``1 / c``, ``rho0`` and
``tol`` for being finite, and ``r`` with the truncation rule of
:func:`~latc.lowrank.svt` against every unfolding with nonzero weight.

The loop stops on the relative change of ``X``, so it never evaluates
the objective: :class:`IterationRecord` holds only what the stop rule
and the history need, and callers compute the objective's terms on
demand with :func:`~latc.lowrank.tensor_tnn` and
:func:`~latc.autoreg.temporal_variation`.

:func:`impute` is the only entry point.  Both baselines are parameter
settings of it: ``c = 0`` removes the AR term and runs plain
truncated-nuclear-norm completion (LRTC-TNN), and
``weights = (1, 0, 0)`` thresholds only the ``(M, T)`` matrix, which is
the matrix model (LAMC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autoreg import (
    build_lag_structure,
    factor_z_matrix,
    solve_z_matrix,
    update_coefficients,
)
from .lowrank import _check_truncation, _check_weights, svt
from .tensors import MODES, fold, frobenius_norm, project, unfold

DEFAULT_LAGS = (1, 2, 3, 4, 5, 6)
RHO_GROWTH = 1.05
RHO_MAX_FACTOR = 1e5
COEFF_INIT_SCALE = 0.01
# ADMM steps between two refits of the AR coefficients.
INNER_ITERS = 3


@dataclass
class SolverConfig:
    """Parameters of one completion run.

    ``dims = (M, I, J)`` fixes the tensor layout: ``M`` sensors, ``I``
    steps per day, ``J`` days, with the data matrix of shape
    ``(M, I * J)``.  ``c`` couples the AR weight to the ADMM penalty
    (``lam = c * rho``); ``c = 0`` disables the AR half.  ``rho`` grows
    from ``rho0`` by ``RHO_GROWTH`` per inner step, up to
    ``RHO_MAX_FACTOR * rho0``.
    """

    dims: tuple[int, int, int]
    rho0: float = 1e-4
    c: float = 1.0
    r: int = 10
    lags: tuple[int, ...] = DEFAULT_LAGS
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    max_outer_iters: int = 100
    tol: float = 1e-4
    seed: int = 0

    @property
    def inner_iters(self) -> int:
        """``INNER_ITERS``, which no configuration sets; ``perfbench/spans.py`` reads it."""
        return INNER_ITERS

    def validate(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if not 0 < self.rho0 < math.inf:
            raise ValueError(f"rho0 must be positive and finite, got {self.rho0}")
        # The Z step runs at alpha = 1 / c.
        if not (self.c == 0 or 0 < self.c < math.inf and math.isfinite(1 / float(self.c))):
            raise ValueError(f"c must be 0, or positive with c and 1 / c finite, got {self.c}")
        build_lag_structure(self.lags, dims[1] * dims[2])
        weights = _check_weights(self.weights)
        # The mode-p unfolding has dims[p] rows and the other two sides as columns.
        size = dims[0] * dims[1] * dims[2]
        for side, weight in zip(dims, weights):
            if weight > 0:
                _check_truncation(self.r, side, size // side)
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class SolverState:
    """Snapshot handed to the optional per-inner-step callback.

    ``x``, ``z`` and ``dual`` are ``(M, T)`` matrices.
    """

    x: np.ndarray
    z: np.ndarray
    coefficients: np.ndarray
    dual: np.ndarray
    outer_iter: int
    inner_iter: int
    rho: float


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration: the relative change of ``X`` that the stop
    rule reads, the mean primal residual of its inner steps, and ``rho``."""

    outer: int
    change: float
    primal_residual: float
    rho: float


@dataclass
class ImputationResult:
    recovered: np.ndarray
    coefficients: np.ndarray
    iterations: int
    converged: bool
    history: list[IterationRecord] = field(default_factory=list)


Callback = Callable[[SolverState], None]


def update_x(W: np.ndarray, cfg: SolverConfig, rho: float) -> np.ndarray:
    """Weighted thresholding step over the three unfoldings.

    ``W = Z - dual / rho`` is an ``(M, T)`` matrix and so is the result.
    Each mode ``p`` applies :func:`svt` with threshold ``weights[p]/rho``
    to the mode-``p`` unfolding of ``fold(W, 1, dims)`` and the folded
    results are combined with the same weights.  For a C-contiguous
    ``W`` the mode-1 unfolding of that view is a view of ``W`` itself.
    Modes with zero weight are skipped, so ``r`` is only bounded by the
    unfoldings that are thresholded.
    """
    W = np.asarray(W, dtype=float)
    out = np.zeros(W.shape)
    # Views: adding into out_tensor fills out.
    w_tensor, out_tensor = fold(W, 1, cfg.dims), fold(out, 1, cfg.dims)
    for mode, weight in zip(MODES, cfg.weights):
        if weight == 0.0:
            continue
        # Scaled before it is folded: numpy scales an unnamed array that owns
        # its data in place, but not a view.  Unnamed, so the result is freed
        # before the next mode's SVD.
        out_tensor += fold(
            weight * svt(unfold(w_tensor, mode), cfg.r, weight / rho), mode, cfg.dims
        )
    return out


def _check_inputs(Y: np.ndarray, mask: np.ndarray, cfg: SolverConfig):
    cfg.validate()
    m, i, j = cfg.dims
    Y = np.asarray(Y, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if Y.shape != (m, i * j):
        raise ValueError(f"data shape {Y.shape} does not match dims {cfg.dims}")
    if mask.shape != Y.shape:
        raise ValueError(f"mask shape {mask.shape} != data shape {Y.shape}")
    if not mask.any():
        raise ValueError("mask has no observed entries")
    if not np.all(np.isfinite(Y)):
        raise ValueError("data contains non-finite entries; encode missing cells via the mask")
    return Y, mask


def impute(
    Y: np.ndarray,
    mask: np.ndarray,
    cfg: SolverConfig,
    callback: Callback | None = None,
) -> ImputationResult:
    """Complete the missing entries of ``Y`` with the ADMM loop.

    ``mask`` is true on observed cells.  Observed entries of the result
    equal ``Y`` exactly; unobserved cells come from the converged
    low-rank iterate.  The values of ``Y`` in unobserved cells must be
    finite but do not affect the result.  ``cfg`` is validated before
    the loop starts, so ``r`` must be smaller than both sides of every
    unfolding with nonzero weight.  With ``cfg.c == 0`` the AR half is
    skipped and neither ``cfg.lags`` nor ``cfg.seed`` influences the
    result.  A Z-step system that cannot be solved, or an iterate that
    stops being finite, raises ``numpy.linalg.LinAlgError``.
    """
    Y, mask = _check_inputs(Y, mask, cfg)
    m_dim, i_dim, j_dim = cfg.dims
    rho_max = RHO_MAX_FACTOR * cfg.rho0
    use_ar = cfg.c > 0

    if use_ar:
        lag = build_lag_structure(cfg.lags, i_dim * j_dim)
        rng = np.random.default_rng(cfg.seed)
        coeffs = rng.random((m_dim, lag.order)) * COEFF_INIT_SCALE
    else:
        lag = None
        coeffs = np.zeros((m_dim, len(cfg.lags)))

    # Z starts at the observations, and so does the change's reference x.
    Z = project(Y, mask)
    # With no nonzero observation the change is measured in absolute terms.
    change_scale = frobenius_norm(Z) or 1.0
    x = Z
    dual = np.zeros_like(Z)

    rho = cfg.rho0
    history: list[IterationRecord] = []
    converged = False

    for outer in range(1, cfg.max_outer_iters + 1):
        prev_x = x
        # rho / lam = 1 / c in every inner step, so one factorization serves them all.
        factors = factor_z_matrix(coeffs, lag, 1 / cfg.c) if use_ar else None
        residuals = np.empty(INNER_ITERS)
        for inner in range(INNER_ITERS):
            rho = min(RHO_GROWTH * rho, rho_max)
            # Only (M, T) arrays the next step reads stay alive across the X step.
            del x
            x = update_x(Z - dual / rho, cfg, rho)
            z_raw = x + dual / rho
            if use_ar:
                z_raw = solve_z_matrix(z_raw, factors)
            gap = x - z_raw
            # A new array, so the duals of states already handed out never change.
            dual = dual + rho * gap
            if not np.isfinite(dual).all():  # else gap, x and z_raw are finite too
                raise np.linalg.LinAlgError(f"ADMM iterate not finite in outer iteration {outer}")
            residuals[inner] = frobenius_norm(gap)
            Z = np.where(mask, Y, z_raw)
            del z_raw, gap
            if callback is not None:
                callback(SolverState(x, Z, coeffs, dual, outer, inner, rho))
        del factors
        change = frobenius_norm(x - prev_x) / change_scale
        # Freed before the refit, whose scaled copy of Z would otherwise
        # raise the loop's peak memory.
        del prev_x

        if use_ar:
            coeffs = update_coefficients(Z, lag)

        history.append(IterationRecord(outer, change, float(residuals.mean()), rho))
        if change < cfg.tol:
            converged = True
            break

    return ImputationResult(
        recovered=np.where(mask, Y, x),
        coefficients=coeffs,
        iterations=outer,
        converged=converged,
        history=history,
    )
