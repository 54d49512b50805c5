"""Tensor layout tests.

The unfolding oracle below recomputes the expected matrix entry by
entry from the closed-form index map (row = chosen mode, column =
remaining indices flattened in ascending mode order with the earlier
index varying fastest), independently of the implementation.
"""

import numpy as np
import pytest

from latc import (
    fold,
    frobenius_norm,
    project,
    unfold,
)


def reference_unfold(tensor, mode):
    """Index-map oracle: loop over every entry and place it by formula."""
    dims = tensor.shape
    rest = [k for k in range(3) if k != mode - 1]
    out = np.zeros((dims[mode - 1], dims[rest[0]] * dims[rest[1]]))
    for a in range(dims[0]):
        for b in range(dims[1]):
            for c in range(dims[2]):
                idx = (a, b, c)
                col = idx[rest[0]] + dims[rest[0]] * idx[rest[1]]
                out[idx[mode - 1], col] = tensor[a, b, c]
    return out


class TestUnfold:
    def test_enumerated_2x2x2(self):
        # x[m,i,j] = 4m + 2i + j; mode-1 rows must read (4m, 4m+2, 4m+1, 4m+3)
        t = np.empty((2, 2, 2))
        for m in range(2):
            for i in range(2):
                for j in range(2):
                    t[m, i, j] = 4 * m + 2 * i + j
        expected = np.array([[0.0, 2.0, 1.0, 3.0], [4.0, 6.0, 5.0, 7.0]])
        assert np.array_equal(unfold(t, 1), expected)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_index_map_oracle(self, mode):
        rng = np.random.default_rng(7)
        for dims in [(2, 3, 4), (3, 1, 5), (4, 4, 4), (1, 1, 6)]:
            t = rng.normal(size=dims)
            assert np.array_equal(unfold(t, mode), reference_unfold(t, mode))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_shapes(self, mode):
        t = np.zeros((2, 3, 5))
        rest = [d for k, d in enumerate(t.shape) if k != mode - 1]
        assert unfold(t, mode).shape == (t.shape[mode - 1], rest[0] * rest[1])

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(3, 4, 5))
        for mode in (1, 2, 3):
            assert frobenius_norm(unfold(t, mode)) == pytest.approx(
                frobenius_norm(t), abs=1e-12
            )

    def test_rejects_bad_mode_and_rank(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), 4)
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), 1)


class TestFold:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_roundtrip_bit_exact(self, mode):
        rng = np.random.default_rng(mode)
        for _ in range(50):
            dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
            t = rng.normal(size=dims)
            assert np.array_equal(fold(unfold(t, mode), mode, dims), t)

    def test_rejects_mismatched_shape(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), 1, (2, 2, 2))
        with pytest.raises(ValueError):
            fold(np.zeros((2, 4)), 1, (2, 2, -2))


class TestTensorize:
    """The day layout: the mode-1 fold of an ``(M, I * J)`` series matrix."""

    def test_day_blocks(self):
        # One sensor, two steps per day, two days: first block is day one.
        y = np.array([[1.0, 2.0, 3.0, 4.0]])
        t = fold(y, 1, (1, 2, 2))
        assert np.array_equal(t[0, :, 0], [1.0, 2.0])
        assert np.array_equal(t[0, :, 1], [3.0, 4.0])

    def test_index_map(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(3, 20))
        t = fold(y, 1, (3, 4, 5))
        for m in range(3):
            for i in range(4):
                for j in range(5):
                    assert t[m, i, j] == y[m, j * 4 + i]

    def test_matches_mode1_fold(self):
        # fold only splits the column axis, so a matrix in any memory
        # order gives the same tensor, as a view.
        rng = np.random.default_rng(4)
        y = rng.normal(size=(2, 12))
        y_fortran = np.asfortranarray(y)
        t = fold(y_fortran, 1, (2, 3, 4))
        assert np.shares_memory(t, y_fortran)
        assert np.array_equal(t, fold(y, 1, (2, 3, 4)))

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(4, 18))
        assert np.array_equal(unfold(fold(y, 1, (4, 6, 3)), 1), y)
        t = rng.normal(size=(4, 3, 6))
        assert np.array_equal(fold(unfold(t, 1), 1, (4, 3, 6)), t)

    def test_constant_rows_give_constant_slices(self):
        y = np.tile(np.array([[2.0], [5.0]]), (1, 12))
        t = fold(y, 1, (2, 4, 3))
        assert np.all(t[0] == 2.0)
        assert np.all(t[1] == 5.0)

    def test_view_of_contiguous_matrix(self):
        y = np.arange(24.0).reshape(2, 12)
        t = fold(y, 1, (2, 3, 4))
        assert np.shares_memory(t, y)
        assert np.shares_memory(unfold(t, 1), y)
        t[1, 2, 3] = -1.0
        assert y[1, 3 * 3 + 2] == -1.0

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 10)), 1, (2, 3, 4))


class TestProject:
    def test_keeps_observed_zeroes_rest(self):
        y = np.array([[1.0, -2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        assert np.array_equal(project(y, mask), [[1.0, 0.0], [0.0, 4.0]])

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(3, 7))
        w = rng.normal(size=(3, 7))
        mask = rng.random((3, 7)) < 0.5
        once = project(y, mask)
        assert np.array_equal(project(once, mask), once)
        assert np.allclose(
            project(2.0 * y + w, mask), 2.0 * project(y, mask) + project(w, mask)
        )

    def test_complement_decomposition(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(4, 6))
        mask = rng.random((4, 6)) < 0.4
        assert np.array_equal(project(y, mask) + project(y, ~mask), y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            project(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))


class TestNorms:
    def test_frobenius_matches_definition(self):
        rng = np.random.default_rng(10)
        t = rng.normal(size=(3, 4, 5))
        assert frobenius_norm(t) == pytest.approx(np.sqrt(np.sum(t**2)), rel=1e-14)

    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 2, 2))) == 0.0

    def test_ordinary_scale_is_numpy_norm_bit_for_bit(self):
        t = np.random.default_rng(11).normal(size=(3, 4, 5))
        assert frobenius_norm(t) == float(np.linalg.norm(t.ravel()))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales_rescale(self, scale):
        # Squares of 1e-200 underflow and squares of 1e200 overflow; the
        # norm must still be the scale times the norm at scale 1.
        t = np.random.default_rng(12).normal(size=(3, 4, 5))
        assert frobenius_norm(scale * t) == pytest.approx(
            scale * frobenius_norm(t), rel=1e-14, abs=0.0
        )

    def test_non_finite_entries_pass_through(self):
        assert frobenius_norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(frobenius_norm(np.array([1e200, np.nan])))
