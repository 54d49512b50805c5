"""AR machinery tests.

Independent routes are compared throughout: the FFT solve of every
series against a dense handwritten normal-equation solve, the banded
Cholesky solve of ``oracles.solve_z_per_row`` and the joint
Kronecker-product system; the normal-equation refit against the per-row
``lstsq`` of ``oracles.update_coefficients_lstsq``.  Selector placements
are frozen by hand from the block formula.
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
from latc.tensors import frobenius_norm
from oracles import (
    lag_stack,
    selector,
    solve_z_per_row,
    solve_z_vectorized,
    update_coefficients_lstsq,
)

# Relative distance per row allowed between the refit through the normal
# equations and the oracle's lstsq on the tall regressors: rounding in the
# normal equations grows as eps * cond(V)**2.
EPS_REFIT = 1e-8


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
        # Each row is scaled and solved on its own system: changing one row's
        # series or coefficients leaves every other row bit-identical.
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
        solved = solve_z(x, a, lag, 0.8)
        joint = solve_z_vectorized(x, a, lag, 0.8)
        assert np.linalg.norm(solved - joint) <= 1e-8 * np.linalg.norm(joint)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_matches_per_row_oracle_within_eps(self, alpha, scale):
        # The FFT solve against the banded Cholesky route, row by row; the
        # solve scales each row by a power of two, so no data scale overflows.
        rng = np.random.default_rng(14)
        lag = build_lag_structure((1, 2, 4), 40)
        a = rng.normal(size=(5, 3)) * 0.4
        factors = factor_z_matrix(a, lag, alpha)
        for _ in range(3):  # the same factors serve several right-hand sides
            x = rng.normal(size=(5, 40)) * 50.0 * scale
            out, expected = solve_z_matrix(x, factors), solve_z_per_row(x, a, lag, alpha)
            for m in range(5):
                assert frobenius_norm(out[m] - expected[m]) <= 1e-10 * frobenius_norm(
                    expected[m]
                )

    def test_factors_keep_their_own_coefficients(self):
        # The factors solve the system of the coefficients given at
        # factoring, even if the caller's array changes afterwards.
        rng = np.random.default_rng(15)
        lag = build_lag_structure((1, 2, 4), 30)
        a = rng.normal(size=(4, 3)) * 0.4
        x = rng.normal(size=(4, 30))
        expected = solve_z_matrix(x, factor_z_matrix(a.copy(), lag, 0.5))
        factors = factor_z_matrix(a, lag, 0.5)
        a[:] = 0.0
        assert np.array_equal(solve_z_matrix(x, factors), expected)

    def test_factors_hold_no_band_per_row(self):
        # Per row the factors keep a half spectrum (T // 2 + 1 values), the
        # coefficients and an (n, n) matrix on the n <= 2 * max_lag wrap
        # columns; the two DFT matrices on those columns are shared.  A banded
        # Cholesky factor would keep (max_lag + 1) * T values per row.
        lag = build_lag_structure((1, 3), 200)
        h, half = lag.max_lag, lag.length // 2 + 1
        for rows in (1, 6, 40):
            factors = factor_z_matrix(np.zeros((rows, lag.order)), lag, 1.0)
            held = sum(v.nbytes for v in vars(factors).values() if isinstance(v, np.ndarray))
            per_row = 8 * (half + lag.order + (2 * h) ** 2)
            shared = 2 * 8 * (2 * half) * (2 * h)
            assert held <= rows * per_row + shared
        assert held < rows * 8 * (h + 1) * lag.length

    @pytest.mark.parametrize("length", [6, 7, 9])
    def test_wrap_columns_overlap_matches_vectorized_oracle(self, length):
        # With T < 2 * max_lag the first and last max_lag columns overlap, so
        # a wrap row can touch a column twice over the two ranges.
        rng = np.random.default_rng(16)
        lag = build_lag_structure((1, 5), length)
        x = rng.normal(size=(3, length))
        a = rng.normal(size=(3, 2))
        for alpha in (0.1, 1.0):
            joint = solve_z_vectorized(x, a, lag, alpha)
            assert np.linalg.norm(solve_z(x, a, lag, alpha) - joint) <= 1e-10 * np.linalg.norm(
                joint
            )

    def test_largest_finite_scale_stays_finite(self):
        # The zero-order rfft term of these rows overflows unless the solve
        # scales them first.  With zero coefficients B.T @ B is 0 on the first
        # max_lag entries and I after them, so the answer is x there and x / 2
        # after.
        rng = np.random.default_rng(17)
        lag = build_lag_structure((1, 3), 40)
        x = rng.uniform(0.5, 1.0, size=(3, 40)) * 2.0**1023
        expected = x.copy()
        expected[:, lag.max_lag :] /= 2
        out = solve_z_matrix(x, factor_z_matrix(np.zeros((3, 2)), lag, 1.0))
        assert frobenius_norm(out - expected) <= 1e-12 * frobenius_norm(expected)

    def test_non_finite_rejected(self):
        lag = build_lag_structure((1, 2), 8)
        factors = factor_z_matrix(np.zeros((2, 2)), lag, 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            x = np.zeros((2, 8))
            x[1, 3] = bad
            with pytest.raises(np.linalg.LinAlgError):
                solve_z_matrix(x, factors)
            a = np.zeros((2, 2))
            a[1, 0] = bad
            with pytest.raises(np.linalg.LinAlgError):
                factor_z_matrix(a, lag, 1.0)
        for alpha in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                factor_z_matrix(np.zeros((2, 2)), lag, alpha)
        # Finite coefficients whose squares overflow give a non-finite system.
        with pytest.raises(np.linalg.LinAlgError):
            factor_z_matrix(np.full((2, 2), 1e200), lag, 1.0)

    def test_failed_factorization_raises(self):
        # a = 1 on lag 2 makes B.T @ B a singular path Laplacian on each
        # parity class, so the system's smallest eigenvalue is alpha, far
        # below the rounding of its largest.
        lag = build_lag_structure((2,), 12)
        a = np.ones((2, 1))
        with pytest.raises(np.linalg.LinAlgError):
            factor_z_matrix(a, lag, 1e-300)


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
            solved = solve_z(x, a, lag, alpha)
            joint = solve_z_vectorized(x, a, lag, alpha)
            assert np.linalg.norm(solved - joint) <= 1e-8 * max(
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

    @pytest.mark.parametrize(
        "lags, rows",
        [
            ((1, 2, 3, 4, 5, 6), "walks"),
            ((1, 3), "walks"),
            ((2, 5, 7), "walks"),
            ((1, 2, 144), "walks"),
            ((1, 2, 3, 4, 5, 6), "scales"),
            ((1, 2), "rank-deficient"),
        ],
    )
    def test_matches_lstsq_oracle_within_eps(self, lags, rows):
        rng = np.random.default_rng(18)
        t = np.arange(2016)
        # Daily profiles plus random walks, at T = 2016 (14 days of 144 steps).
        z = 50.0 + 10.0 * np.sin(2 * np.pi * t / 144) + rng.normal(size=(6, 2016)).cumsum(axis=1)
        if rows == "scales":
            # Ordinary and constant rows at the extremes of the float range,
            # where the products overflow or underflow without the pre-scale.
            scales = np.array([1e-300, 1.0, 1e300])[:, None]
            z = np.vstack([z[:3] * scales, np.ones((3, 2016)) * scales])
        elif rows == "rank-deficient":
            # All-zero, constant and geometric rows; the geometric row's two
            # lagged columns are proportional, so only the minimum-norm
            # solution is defined.
            z = np.vstack([np.zeros(2016), np.full(2016, -7.0), 0.5**t])
        lag = build_lag_structure(lags, 2016)
        out, expected = update_coefficients(z, lag), update_coefficients_lstsq(z, lag)
        for m in range(z.shape[0]):
            assert np.linalg.norm(out[m] - expected[m]) <= EPS_REFIT * np.linalg.norm(expected[m])
        if rows == "rank-deficient":
            assert np.allclose(expected, [[0.0, 0.0], [0.5, 0.5], [0.1, 0.2]], rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_quietly(self, bad, capfd):
        # Checked before any LAPACK call, which would print to stderr.
        lag = build_lag_structure((1, 2), 50)
        z = np.ones((1, 50))
        z[0, 17] = bad
        with pytest.raises(np.linalg.LinAlgError, match="finite"):
            update_coefficients(z, lag)
        assert capfd.readouterr().err == ""

    def test_shape_mismatch(self):
        lag = build_lag_structure((1, 2), 9)
        for bad in (np.zeros(9), np.zeros((2, 8)), np.zeros((2, 9, 1))):
            with pytest.raises(ValueError):
                update_coefficients(bad, lag)
