"""Truncated nuclear norm and generalized singular value thresholding.

The truncated nuclear norm of a matrix is the sum of its singular
values beyond the ``r`` largest.  Its proximal step keeps the leading
``r`` singular values untouched and soft-thresholds the rest, which is
the single matrix operation the completion solver applies to each
unfolding of the iterate.
"""

from __future__ import annotations

import numpy as np

from .tensors import unfold


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _check_truncation(r: int, m: int, n: int) -> None:
    if not isinstance(r, (int, np.integer)):
        raise ValueError(f"truncation must be an integer, got {r!r}")
    if not 0 <= r < min(m, n):
        raise ValueError(
            f"truncation r={r} must satisfy 0 <= r < min{m, n} = {min(m, n)}"
        )


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must be 3 non-negative values summing to 1, got {weights}")
    return w


def truncated_nuclear_norm(matrix: np.ndarray, r: int) -> float:
    """Sum of singular values beyond the ``r`` largest.

    ``r = 0`` gives the ordinary nuclear norm.
    """
    a = _as_matrix(matrix)
    _check_truncation(r, *a.shape)
    s = np.linalg.svd(a, compute_uv=False)
    return float(np.sum(s[r:]))


def svt(matrix: np.ndarray, r: int, tau: float) -> np.ndarray:
    """Proximal step of the truncated nuclear norm.

    Returns ``U @ diag(s') @ V.T`` where the ``r`` leading singular
    values pass through unchanged and the remaining ones are
    soft-thresholded: ``s'[i] = max(s[i] - tau, 0)`` for ``i >= r``.
    This minimizes ``tau * ||X||_{r,*} + 0.5 * ||X - matrix||_F^2``.
    Convergence failures inside LAPACK surface as
    ``numpy.linalg.LinAlgError``.
    """
    a = _as_matrix(matrix)
    _check_truncation(r, *a.shape)
    if tau < 0:
        raise ValueError(f"threshold tau must be non-negative, got {tau}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    s[r:] = np.maximum(s[r:] - tau, 0.0)
    return (u * s) @ vh


def tensor_tnn(
    tensor: np.ndarray, r: int, weights: tuple[float, float, float]
) -> float:
    """Weighted sum of truncated nuclear norms over the three unfoldings.

    ``weights`` must be non-negative and sum to one.  Modes with zero
    weight are skipped, so ``r`` must only be smaller than both sides of
    every unfolding with nonzero weight.
    """
    t = np.asarray(tensor, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got shape {t.shape}")
    w = _check_weights(weights)
    return float(
        sum(
            w[p - 1] * truncated_nuclear_norm(unfold(t, p), r)
            for p in (1, 2, 3)
            if w[p - 1] > 0
        )
    )
