"""AR machinery tests.

Two independent routes are compared throughout: the banded per-series
solve against a dense handwritten normal-equation solve, and against
the joint Kronecker-product system.  Selector placements are frozen by
hand from the block formula.
"""

import numpy as np
import pytest

from latc import (
    ar_residual,
    build_lag_structure,
    factor_z_matrix,
    solve_z_matrix,
    temporal_variation,
    update_coefficients,
)
from latc import autoreg
from oracles import lag_stack, selector, solve_z_per_row, solve_z_vectorized


def dense_residual_matrix(a, lag):
    """B = selector(0) - sum_i a_i selector(i), built densely."""
    b = selector(lag, 0)
    for i, ai in enumerate(a, start=1):
        b = b - ai * selector(lag, i)
    return b


def dense_solve(x, a, lag, alpha):
    b = dense_residual_matrix(a, lag)
    return np.linalg.solve(b.T @ b + alpha * np.eye(lag.length), alpha * x)


class TestLagStructure:
    def test_selectors_h13_t5(self):
        # Hand application of the block formula for H={1,3}, T=5:
        # current-value block starts after h_d=3 columns; lag-h block
        # starts at h_d - h.
        lag = build_lag_structure((1, 3), 5)
        assert lag.order == 2
        assert lag.max_lag == 3
        assert lag.n_residuals == 2
        expected0 = np.array([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], dtype=float)
        expected1 = np.array([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]], dtype=float)
        expected2 = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], dtype=float)
        assert np.array_equal(selector(lag, 0), expected0)
        assert np.array_equal(selector(lag, 1), expected1)
        assert np.array_equal(selector(lag, 2), expected2)

    def test_selectors_h1_t3(self):
        lag = build_lag_structure((1,), 3)
        assert np.array_equal(selector(lag, 0), [[0, 1, 0], [0, 0, 1]])
        assert np.array_equal(selector(lag, 1), [[1, 0, 0], [0, 1, 0]])

    def test_selector_semantics(self):
        lag = build_lag_structure((1, 3), 5)
        z = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(selector(lag, 0) @ z, [4.0, 5.0])
        assert np.array_equal(selector(lag, 2) @ z, [1.0, 2.0])

    def test_one_hot_rows(self):
        lag = build_lag_structure((2, 5, 6), 20)
        for i in range(lag.order + 1):
            s = selector(lag, i)
            assert np.array_equal(s.sum(axis=1), np.ones(lag.n_residuals))
            assert set(np.unique(s)) <= {0.0, 1.0}

    def test_lag_stack_shape(self):
        lag = build_lag_structure((1, 2, 4), 10)
        assert lag_stack(lag).shape == (6, 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_lag_structure((), 5)
        with pytest.raises(ValueError):
            build_lag_structure((3, 1), 5)
        with pytest.raises(ValueError):
            build_lag_structure((2, 2), 5)
        with pytest.raises(ValueError):
            build_lag_structure((1, 5), 5)
        with pytest.raises(ValueError):
            build_lag_structure((0, 1), 5)


class TestTemporalVariation:
    def test_zero_series(self):
        lag = build_lag_structure((1, 2), 6)
        z = np.zeros((3, 6))
        a = np.ones((3, 2))
        assert temporal_variation(z, a, lag) == 0.0

    def test_constant_series_ar1(self):
        lag = build_lag_structure((1,), 8)
        z = np.full((1, 8), 7.0)
        a = np.ones((1, 1))
        assert temporal_variation(z, a, lag) == 0.0

    def test_hand_computed(self):
        # z=(1,2,3), a=2: residuals (2-2*1, 3-2*2) -> 0^2 + 1^2 = 1.
        lag = build_lag_structure((1,), 3)
        z = np.array([[1.0, 2.0, 3.0]])
        a = np.array([[2.0]])
        assert temporal_variation(z, a, lag) == pytest.approx(1.0, abs=1e-12)

    def test_matches_selector_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            lag = build_lag_structure((1, 2, 5), 17)
            z = rng.normal(size=(4, 17))
            a = rng.normal(size=(4, 3))
            direct = temporal_variation(z, a, lag)
            via_selectors = sum(
                np.sum((dense_residual_matrix(a[m], lag) @ z[m]) ** 2)
                for m in range(4)
            )
            assert direct == pytest.approx(via_selectors, rel=1e-10)

    def test_shape_mismatch(self):
        lag = build_lag_structure((1,), 5)
        with pytest.raises(ValueError):
            temporal_variation(np.zeros((2, 5)), np.zeros((3, 1)), lag)
        with pytest.raises(ValueError):
            temporal_variation(np.zeros((2, 6)), np.zeros((2, 1)), lag)
        with pytest.raises(ValueError):
            temporal_variation(np.zeros(5), np.zeros(1), lag)


def solve_z(x, a, lag, alpha):
    """:func:`solve_z_matrix` on the systems :func:`factor_z_matrix` builds."""
    return solve_z_matrix(x, factor_z_matrix(a, lag, alpha))


def solve_one(x, a, lag, alpha):
    """:func:`solve_z_matrix` on the one-row matrix holding series ``x``."""
    return solve_z(x[None, :], a[None, :], lag, alpha)[0]


class TestSolveZSeries:
    """One-series cases, each a one-row input of :func:`solve_z_matrix`."""

    def test_ar_consistent_fixed_point(self):
        # Constant series with a=1 has zero residual, so it solves the
        # system exactly for any alpha.
        lag = build_lag_structure((1,), 10)
        x = np.full(10, 3.5)
        z = solve_one(x, np.array([1.0]), lag, 0.7)
        assert np.allclose(z, x, atol=1e-12)

    def test_hand_solved_2x2(self):
        # a=0, H={1}, T=2: B=[0 1], B'B=diag(0,1); (diag(1,2))z=(1,0).
        lag = build_lag_structure((1,), 2)
        z = solve_one(np.array([1.0, 0.0]), np.array([0.0]), lag, 1.0)
        assert np.allclose(z, [1.0, 0.0], atol=1e-12)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lags = tuple(sorted(rng.choice(np.arange(1, 7), size=3, replace=False)))
            lag = build_lag_structure(lags, 30)
            x = rng.normal(size=30)
            a = rng.normal(size=3)
            alpha = float(rng.uniform(0.1, 5.0))
            z = solve_one(x, a, lag, alpha)
            b = dense_residual_matrix(a, lag)
            lhs = (b.T @ b + alpha * np.eye(30)) @ z
            assert np.linalg.norm(lhs - alpha * x) < 1e-9 * alpha * np.linalg.norm(x)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            lag = build_lag_structure((1, 4), 25)
            x = rng.normal(size=25)
            a = rng.normal(size=2)
            assert np.allclose(
                solve_one(x, a, lag, 0.9), dense_solve(x, a, lag, 0.9), atol=1e-10
            )

    def test_large_alpha_limit(self):
        rng = np.random.default_rng(3)
        lag = build_lag_structure((1, 2), 15)
        x = rng.normal(size=15)
        a = rng.normal(size=2)
        b = dense_residual_matrix(a, lag)
        alpha = 1e6 * np.linalg.norm(b.T @ b, 2)
        z = solve_one(x, a, lag, alpha)
        assert np.linalg.norm(z - x) <= 1e-3 * np.linalg.norm(x)

    def test_alpha_must_be_positive(self):
        lag = build_lag_structure((1,), 5)
        with pytest.raises(ValueError):
            solve_one(np.zeros(5), np.zeros(1), lag, 0.0)


class TestSolveZMatrix:
    def test_rowwise_reduction(self):
        rng = np.random.default_rng(4)
        lag = build_lag_structure((1, 3), 12)
        x = rng.normal(size=(3, 12))
        a = rng.normal(size=(3, 2))
        out = solve_z(x, a, lag, 1.3)
        for m in range(3):
            assert np.allclose(out[m], dense_solve(x[m], a[m], lag, 1.3), atol=1e-10)

    def test_rows_are_independent(self):
        # Each row is solved on its own band: changing one row's series or
        # coefficients leaves every other row bit-identical.
        rng = np.random.default_rng(13)
        lag = build_lag_structure((1, 3), 12)
        x = rng.normal(size=(4, 12))
        a = rng.normal(size=(4, 2))
        out = solve_z(x, a, lag, 1.3)
        x2, a2 = x.copy(), a.copy()
        x2[1] += rng.normal(size=12)
        a2[1] += 0.5
        out2 = solve_z(x2, a2, lag, 1.3)
        assert not np.array_equal(out2[1], out[1])
        for m in (0, 2, 3):
            assert np.array_equal(out2[m], out[m])

    def test_shape_mismatch(self):
        lag = build_lag_structure((1, 2), 6)
        factors = factor_z_matrix(np.zeros((2, 2)), lag, 1.0)
        with pytest.raises(ValueError):
            solve_z_matrix(np.zeros(6), factors)
        with pytest.raises(ValueError):
            solve_z_matrix(np.zeros((2, 7)), factors)
        with pytest.raises(ValueError):
            solve_z_matrix(np.zeros((3, 6)), factors)
        with pytest.raises(ValueError):
            factor_z_matrix(np.zeros((2, 1)), lag, 1.0)
        with pytest.raises(ValueError):
            factor_z_matrix(np.zeros(2), lag, 1.0)

    def test_ar_consistent_rows_unchanged(self):
        lag = build_lag_structure((1,), 9)
        x = np.vstack([np.full(9, 2.0), np.full(9, -4.0)])
        a = np.ones((2, 1))
        assert np.allclose(solve_z(x, a, lag, 0.5), x, atol=1e-12)

    def test_matches_vectorized_oracle(self):
        rng = np.random.default_rng(5)
        lag = build_lag_structure((1, 2), 20)
        x = rng.normal(size=(3, 20))
        a = rng.normal(size=(3, 2))
        banded = solve_z(x, a, lag, 0.8)
        joint = solve_z_vectorized(x, a, lag, 0.8)
        assert np.linalg.norm(banded - joint) <= 1e-8 * np.linalg.norm(joint)

    @pytest.mark.parametrize("cached_rows", [0, 1, 3, 5])
    def test_factors_match_per_row_oracle_bit_for_bit(self, monkeypatch, cached_rows):
        # Rows inside the budget reuse their cached factor, the others are
        # factored again into the scratch band; both give the per-row
        # solveh_banded answer bit for bit (max_lag >= 2, see the oracle).
        rng = np.random.default_rng(14)
        lag = build_lag_structure((1, 2, 4), 40)
        a = rng.normal(size=(5, 3)) * 0.4
        band_bytes = (lag.max_lag + 1) * lag.length * 8
        monkeypatch.setattr(autoreg, "Z_FACTOR_BUDGET", cached_rows * band_bytes + 7)
        factors = factor_z_matrix(a, lag, 0.1)
        assert len(factors.cached) == cached_rows
        for _ in range(3):  # the same factors serve several right-hand sides
            x = rng.normal(size=(5, 40)) * 50.0
            assert np.array_equal(solve_z_matrix(x, factors), solve_z_per_row(x, a, lag, 0.1))

    def test_factors_keep_their_own_coefficients(self, monkeypatch):
        # Cached and refactored rows must solve the system of the
        # coefficients given at factoring, even if the caller's array changes.
        rng = np.random.default_rng(15)
        lag = build_lag_structure((1, 2, 4), 30)
        a = rng.normal(size=(4, 3)) * 0.4
        band_bytes = (lag.max_lag + 1) * lag.length * 8
        monkeypatch.setattr(autoreg, "Z_FACTOR_BUDGET", 2 * band_bytes)
        x = rng.normal(size=(4, 30))
        expected = solve_z_per_row(x, a, lag, 0.5)
        factors = factor_z_matrix(a, lag, 0.5)
        a[:] = 0.0
        assert np.array_equal(solve_z_matrix(x, factors), expected)

    def test_cache_within_budget(self, monkeypatch):
        lag = build_lag_structure((1, 3), 50)
        a = np.zeros((6, 2))
        band_bytes = (lag.max_lag + 1) * lag.length * 8
        for budget in (0, band_bytes - 1, band_bytes, 5 * band_bytes // 2, 10**9):
            monkeypatch.setattr(autoreg, "Z_FACTOR_BUDGET", budget)
            cached = factor_z_matrix(a, lag, 1.0).cached
            assert cached.nbytes <= budget
            assert len(cached) == min(6, budget // band_bytes)

    def test_non_finite_rejected(self):
        lag = build_lag_structure((1, 2), 8)
        factors = factor_z_matrix(np.zeros((2, 2)), lag, 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            x = np.zeros((2, 8))
            x[1, 3] = bad
            with pytest.raises(ValueError):
                solve_z_matrix(x, factors)
            a = np.zeros((2, 2))
            a[1, 0] = bad
            with pytest.raises(ValueError):
                factor_z_matrix(a, lag, 1.0)
        for alpha in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                factor_z_matrix(np.zeros((2, 2)), lag, alpha)
        # Finite coefficients whose squares overflow give a non-finite system.
        with pytest.raises(ValueError):
            factor_z_matrix(np.full((2, 2), 1e200), lag, 1.0)

    def test_failed_factorization_raises(self, monkeypatch):
        # a = 1 on lag 2 makes B.T @ B a singular path Laplacian on each
        # parity class; an alpha below its rounding leaves a zero pivot.
        lag = build_lag_structure((2,), 12)
        a = np.ones((2, 1))
        with pytest.raises(np.linalg.LinAlgError):
            factor_z_matrix(a, lag, 1e-300)
        monkeypatch.setattr(autoreg, "Z_FACTOR_BUDGET", 0)
        factors = factor_z_matrix(a, lag, 1e-300)  # nothing is factored yet
        with pytest.raises(np.linalg.LinAlgError):
            solve_z_matrix(np.ones((2, 12)), factors)


class TestSolveZVectorized:
    def test_single_series_reduction(self):
        rng = np.random.default_rng(6)
        lag = build_lag_structure((1, 2), 14)
        x = rng.normal(size=14)
        a = rng.normal(size=2)
        joint = solve_z_vectorized(x[None, :], a[None, :], lag, 1.1)
        assert np.allclose(joint[0], solve_one(x, a, lag, 1.1), atol=1e-10)

    def test_zero_coefficients_both_paths(self):
        rng = np.random.default_rng(7)
        lag = build_lag_structure((1, 3), 16)
        x = rng.normal(size=(2, 16))
        a = np.zeros((2, 2))
        assert np.allclose(
            solve_z_vectorized(x, a, lag, 0.6),
            solve_z(x, a, lag, 0.6),
            atol=1e-10,
        )

    def test_agreement_on_many_random_instances(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            m = int(rng.integers(1, 4))
            t = int(rng.integers(8, 16))
            lags = (1, 2) if trial % 2 else (1, int(rng.integers(2, 5)))
            lag = build_lag_structure(lags, t)
            x = rng.normal(size=(m, t))
            a = rng.normal(size=(m, len(lags)))
            alpha = float(rng.uniform(0.2, 3.0))
            banded = solve_z(x, a, lag, alpha)
            joint = solve_z_vectorized(x, a, lag, alpha)
            assert np.linalg.norm(banded - joint) <= 1e-8 * max(
                1.0, np.linalg.norm(joint)
            )

    def test_size_guard(self):
        lag = build_lag_structure((1,), 100)
        with pytest.raises(ValueError):
            solve_z_vectorized(np.zeros((21, 100)), np.zeros((21, 1)), lag, 1.0)


class TestUpdateCoefficients:
    def test_recovers_exact_ar1(self):
        lag = build_lag_structure((1,), 10)
        z = 0.5 ** np.arange(10)
        a = update_coefficients(z[None, :], lag)
        assert a[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_constant_series(self):
        lag = build_lag_structure((1,), 7)
        a = update_coefficients(np.full((1, 7), 3.0), lag)
        assert a[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_series(self):
        lag = build_lag_structure((1, 2), 9)
        a = update_coefficients(np.zeros((2, 9)), lag)
        assert np.array_equal(a, np.zeros((2, 2)))

    def test_recovers_two_lag_generator(self):
        lag = build_lag_structure((1, 2), 40)
        z = np.zeros(40)
        z[0], z[1] = 1.0, 0.5
        for t in range(2, 40):
            z[t] = 0.6 * z[t - 1] - 0.3 * z[t - 2]
        a = update_coefficients(z[None, :], lag)
        assert np.allclose(a[0], [0.6, -0.3], atol=1e-8)

    def test_least_squares_beats_random(self):
        rng = np.random.default_rng(9)
        lag = build_lag_structure((1, 2, 3), 25)
        z = rng.normal(size=(3, 25))
        best = update_coefficients(z, lag)
        fit = temporal_variation(z, best, lag)
        for _ in range(100):
            other = rng.normal(size=(3, 3))
            assert fit <= temporal_variation(z, other, lag) + 1e-10

    def test_residual_orthogonal_to_regressors(self):
        # First-order optimality of least squares: V' (V a - y) = 0.
        rng = np.random.default_rng(10)
        lag = build_lag_structure((1, 3), 30)
        z = rng.normal(size=(2, 30))
        a = update_coefficients(z, lag)
        resid = ar_residual(z, a, lag)
        for m in range(2):
            v = np.column_stack(
                [z[m, lag.max_lag - h : 30 - h] for h in lag.lags]
            )
            assert np.allclose(v.T @ resid[m], 0.0, atol=1e-9)
