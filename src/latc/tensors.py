"""Third-order tensor algebra for multivariate time series matrices.

A data matrix ``Y`` of shape ``(M, T)`` holds ``M`` sensor series of
length ``T``.  When ``T = I * J`` (``I`` steps per day, ``J`` days) the
matrix is the mode-1 unfolding of a tensor of shape ``(M, I, J)`` whose
frontal slice ``j`` holds day ``j``: ``fold(Y, 1, (M, I, J))[m, i, j] ==
Y[m, j * I + i]``.  Columns of ``Y`` are therefore grouped day by day,
and that tensor is a view of ``Y``.

Unfoldings follow the convention where row ``k`` of the mode-``k``
unfolding indexes the chosen mode and the remaining axes are flattened
in ascending order with the earlier axis varying fastest.  Other
libraries flatten the trailing axes in the opposite order; results that
depend on element order within an unfolding are not comparable across
conventions.
"""

from __future__ import annotations

import numpy as np

MODES = (1, 2, 3)


def _as_tensor(tensor: np.ndarray) -> np.ndarray:
    t = np.asarray(tensor, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got shape {t.shape}")
    return t


def _check_mode(mode: int) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a third-order tensor.

    Parameters
    ----------
    tensor : ndarray, shape (d1, d2, d3)
    mode : int
        Which axis (1, 2 or 3) indexes the rows of the result.

    Returns
    -------
    ndarray, shape (d_mode, prod of the remaining dims)
        The remaining axes are flattened in ascending order, earlier
        axis varying fastest.  At most one copy is made; the result is
        a view of ``tensor`` when its layout allows.
    """
    t = _as_tensor(tensor)
    _check_mode(mode)
    n = t.shape[mode - 1]
    return np.moveaxis(t, mode - 1, 0).transpose(0, 2, 1).reshape(n, -1)


def fold(matrix: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``.

    Only the column axis is split, which any strides allow, so the
    result is a view of ``matrix`` whenever that is a float array.
    """
    _check_mode(mode)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    mat = np.asarray(matrix, dtype=float)
    rest = [dims[k] for k in range(3) if k != mode - 1]
    expected = (dims[mode - 1], rest[0] * rest[1])
    if mat.ndim != 2 or mat.shape != expected:
        raise ValueError(
            f"matrix shape {mat.shape} does not match mode-{mode} unfolding "
            f"{expected} of dims {dims}"
        )
    t = mat.reshape(dims[mode - 1], rest[1], rest[0]).transpose(0, 2, 1)
    return np.moveaxis(t, 0, mode - 1)


def project(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Keep entries where ``mask`` is true, zero elsewhere."""
    v = np.asarray(values, dtype=float)
    m = np.asarray(mask, dtype=bool)
    if v.shape != m.shape:
        raise ValueError(f"values shape {v.shape} != mask shape {m.shape}")
    return np.where(m, v, 0.0)


def frobenius_norm(array: np.ndarray) -> float:
    """Frobenius norm of an array of any shape, safe at any finite scale.

    This is ``numpy.linalg.norm`` of the flattened array, bit for bit,
    unless its unscaled sum of squares underflows to 0 with a nonzero
    entry or overflows with every entry finite.  Only then is the norm
    taken of ``array / max|array|`` and scaled back.
    """
    x = np.asarray(array, dtype=float).ravel()
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if norm == 0.0 or norm == np.inf:
        peak = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < peak < np.inf:
            norm = peak * float(np.linalg.norm(x / peak))
    return norm
