"""Solver tests.

Synthetic ground truths are built from outer products so the exact
low-rank completion is known; the X step is cross-checked against a
hand-composed pipeline of the tensor and low-rank primitives.
"""

import dataclasses

import numpy as np
import pytest

import latc
from latc import (
    ImputationResult,
    MaskSpec,
    SolverConfig,
    fold,
    generate_mask,
    impute,
    solver,
    svt,
    unfold,
    update_x,
)
from latc.bench import MODELS
from oracles import impute_per_step_alpha

LAMC = MODELS["lamc"]
LRTC_TNN = MODELS["lrtc-tnn"]
# Relative distance allowed between the result of factoring the Z step once
# per outer iteration at alpha = 1 / c and solving it at rho / (c * rho) in
# every inner step, the two differing in the last bit of alpha.
EPS_Z_ALPHA = 1e-10


def rank1_instance(m=20, i=16, j=10, seed=0, observe=0.7):
    """Outer-product tensor flattened to (m, i*j), plus a random mask.

    The temporal factors are smooth positive profiles, so the flattened
    series are AR-predictable; that is the regime the AR-coupled solver
    is built for, and it keeps the recovery examples well conditioned.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0, 2.0, size=m)
    v = 2.0 + 0.5 * np.sin(2 * np.pi * np.arange(i) / i)
    w = 1.5 + 0.2 * np.cos(2 * np.pi * np.arange(j) / j)
    tensor = np.einsum("a,b,c->abc", u, v, w)
    y = unfold(tensor, 1)
    mask = rng.random(y.shape) < observe
    return y, mask


def missing_relative_error(truth, result, mask):
    gap = (truth - result.recovered)[~mask]
    return np.linalg.norm(gap) / np.linalg.norm(truth[~mask])


def small_cfg(dims, **overrides):
    base = dict(dims=dims, rho0=1e-4, c=1.0, r=1, lags=(1, 2), tol=1e-4, seed=0)
    base.update(overrides)
    return SolverConfig(**base)


def lamc_cfg(dims, **overrides):
    """``small_cfg`` with the LAMC row of the model table applied."""
    return dataclasses.replace(small_cfg(dims, **overrides), **LAMC)


def tnn_cfg(dims, **overrides):
    """``small_cfg`` with the LRTC-TNN row of the model table applied."""
    return dataclasses.replace(small_cfg(dims, **overrides), **LRTC_TNN)


class TestUpdateX:
    def test_compositional_oracle(self):
        rng = np.random.default_rng(0)
        cfg = SolverConfig(dims=(3, 4, 5), r=2, weights=(0.2, 0.3, 0.5))
        z = rng.normal(size=(3, 20))
        dual = rng.normal(size=(3, 20))
        rho = 0.7
        w = fold(z - dual / rho, 1, (3, 4, 5))
        expected = np.zeros((3, 4, 5))
        for mode, weight in zip((1, 2, 3), cfg.weights):
            expected += weight * fold(
                svt(unfold(w, mode), cfg.r, weight / rho), mode, (3, 4, 5)
            )
        out = update_x(z - dual / rho, cfg, rho)
        assert np.allclose(out, unfold(expected, 1), atol=1e-12)

    @pytest.mark.parametrize("dims", [(6, 4, 5), (6, 3, 3)])
    def test_matrix_weights_are_one_svt_bit_for_bit(self, dims):
        # (6, 20) takes the Gram route of svt and (6, 9) the exact SVD.
        rng = np.random.default_rng(1)
        w = rng.normal(size=(dims[0], dims[1] * dims[2]))
        cfg = SolverConfig(dims=dims, r=2, weights=(1.0, 0.0, 0.0))
        assert np.array_equal(update_x(w, cfg, 0.7), svt(w, 2, 1 / 0.7))

    def test_zero_inputs(self):
        cfg = SolverConfig(dims=(2, 3, 4), r=1)
        out = update_x(np.zeros((2, 12)), cfg, 1.0)
        assert np.array_equal(out, np.zeros((2, 12)))

    def test_low_rank_fixed_point_at_huge_rho(self):
        # Rank-1 slices: every unfolding has rank 1 <= r, and the
        # shrinkage weight/rho vanishes, so the matrix passes through.
        y, _ = rank1_instance(m=4, i=5, j=6, seed=1)
        cfg = SolverConfig(dims=(4, 5, 6), r=1)
        out = update_x(y, cfg, 1e12)
        assert np.allclose(out, y, atol=1e-8)


class TestImpute:
    def test_fully_observed(self):
        y, _ = rank1_instance(m=6, i=5, j=4, seed=8)
        mask = np.ones(y.shape, dtype=bool)
        cfg = small_cfg((6, 5, 4))
        result = impute(y, mask, cfg)
        assert np.array_equal(result.recovered, y)
        assert result.converged
        assert result.iterations <= 10

    def test_rank1_recovery_rm(self):
        y, mask = rank1_instance()
        cfg = small_cfg((20, 16, 10))
        result = impute(y, mask, cfg)
        assert missing_relative_error(y, result, mask) < 1e-2
        assert result.converged

    def test_observation_consistency_every_inner_step(self):
        y, mask = rank1_instance(m=8, i=6, j=5, seed=9)
        cfg = small_cfg((8, 6, 5), max_outer_iters=5)
        seen = []
        impute(y, mask, cfg, callback=lambda s: seen.append(s.z[mask].copy()))
        assert len(seen) == 5 * cfg.inner_iters
        for z_obs in seen:
            assert np.array_equal(z_obs, y[mask])

    def test_final_result_bit_exact_on_observed(self):
        y, mask = rank1_instance(m=8, i=6, j=5, seed=10)
        result = impute(y, mask, small_cfg((8, 6, 5)))
        assert np.array_equal(result.recovered[mask], y[mask])

    def test_determinism(self):
        y, mask = rank1_instance(m=8, i=6, j=5, seed=11)
        cfg = small_cfg((8, 6, 5), seed=42)
        r1 = impute(y, mask, cfg)
        r2 = impute(y, mask, cfg)
        assert np.array_equal(r1.recovered, r2.recovered)
        assert np.array_equal(r1.coefficients, r2.coefficients)
        assert r1.iterations == r2.iterations
        assert [rec.change for rec in r1.history] == [rec.change for rec in r2.history]

    def test_callback_snapshots_never_change(self):
        # Every state handed out must keep its values after the loop moves on.
        y, mask = rank1_instance(m=8, i=6, j=5, seed=19)
        cfg = small_cfg((8, 6, 5), max_outer_iters=4, tol=1e-12)
        fields = ("x", "z", "coefficients", "dual")
        states, copies = [], []

        def keep(state):
            states.append(state)
            copies.append([getattr(state, name).copy() for name in fields])

        impute(y, mask, cfg, callback=keep)
        assert len(states) == 4 * cfg.inner_iters
        for state, copy in zip(states, copies):
            for name, value in zip(fields, copy):
                assert np.array_equal(getattr(state, name), value), name

    @pytest.mark.parametrize("pattern", ["rm", "bm"])
    def test_alpha_once_per_outer_within_eps_of_per_step(self, pattern):
        dims = (30, 24, 14)
        y, _ = rank1_instance(*dims, seed=5)
        spec = MaskSpec(pattern, rate=0.3, window=6, seed=11)
        mask = generate_mask(np.ones(y.shape, dtype=bool), dims, spec)
        cfg = SolverConfig(dims=dims, c=10.0, r=1, lags=(1, 2, 3, 4, 5, 6), seed=0)
        result = impute(y, mask, cfg)
        expected, iterations = impute_per_step_alpha(y, mask, cfg)
        assert result.iterations == iterations
        gap = np.linalg.norm(result.recovered - expected)
        assert gap <= EPS_Z_ALPHA * np.linalg.norm(expected)
        # The two alphas really differ on some steps of this run.
        rho, differs = cfg.rho0, 0
        for _ in range(iterations * cfg.inner_iters):
            rho = min(solver.RHO_GROWTH * rho, solver.RHO_MAX_FACTOR * cfg.rho0)
            differs += rho / (cfg.c * rho) != 1 / cfg.c
        assert differs > 0

    def test_primal_residual_trend(self):
        y, mask = rank1_instance(m=10, i=8, j=6, seed=12)
        result = impute(y, mask, small_cfg((10, 8, 6)))
        residuals = [rec.primal_residual for rec in result.history]
        for prev, cur in zip(residuals, residuals[1:]):
            assert cur <= 1.05 * prev

    def test_history_records_outer_iterations(self):
        y, mask = rank1_instance(m=6, i=5, j=4, seed=13)
        result = impute(y, mask, small_cfg((6, 5, 4), max_outer_iters=7, tol=1e-12))
        assert result.iterations == 7
        assert not result.converged
        assert [rec.outer for rec in result.history] == list(range(1, 8))
        assert all(rec.rho <= 1e-4 * 1e5 + 1e-15 for rec in result.history)

    def test_lam_zero_equals_lrtc_output(self):
        y, mask = rank1_instance(m=10, i=8, j=6, seed=14)
        a = impute(y, mask, small_cfg((10, 8, 6), c=0.0))
        b = impute(y, mask, tnn_cfg((10, 8, 6)))
        assert np.array_equal(a.recovered, b.recovered)

    def test_lam_zero_trajectories_match_lrtc(self):
        y, mask = rank1_instance(m=6, i=5, j=4, seed=15)
        cfg = small_cfg((6, 5, 4), max_outer_iters=4)

        def record(into):
            return lambda s: into.append((s.x.copy(), s.dual.copy()))

        t1, t2 = [], []
        impute(y, mask, dataclasses.replace(cfg, c=0.0), callback=record(t1))
        impute(y, mask, dataclasses.replace(cfg, **LRTC_TNN), callback=record(t2))
        assert len(t1) == len(t2)
        for (x1, d1), (x2, d2) in zip(t1, t2):
            assert np.array_equal(x1, x2)
            assert np.array_equal(d1, d2)

    def test_all_missing_row_allowed(self):
        y, mask = rank1_instance(m=8, i=6, j=5, seed=16)
        mask[3] = False
        result = impute(y, mask, small_cfg((8, 6, 5)))
        assert np.all(np.isfinite(result.recovered))

    def test_shape_safety(self):
        y, mask = rank1_instance(m=6, i=5, j=4, seed=17)
        with pytest.raises(ValueError):
            impute(y, mask, small_cfg((6, 5, 5)))
        with pytest.raises(ValueError):
            impute(y, mask[:, :-1], small_cfg((6, 5, 4)))
        with pytest.raises(ValueError):
            impute(y, np.zeros_like(mask), small_cfg((6, 5, 4)))
        with pytest.raises(ValueError):
            impute(y, mask, small_cfg((6, 5, 4), r=5))

    def test_invalid_config_rejected(self):
        y, mask = rank1_instance(m=6, i=5, j=4, seed=18)
        for bad in (
            dict(rho0=0.0),
            dict(c=-1.0),
            dict(weights=(0.5, 0.5, 0.5)),
            dict(inner_iters=0),
            dict(tol=0.0),
            dict(lags=(2, 1)),
            dict(c=np.inf),
            dict(c=np.nan),
            dict(rho0=np.inf),
            dict(rho0=np.nan),
            dict(tol=np.inf),
            dict(tol=np.nan),
            dict(weights=(np.nan, 0.0, 1.0)),
            dict(weights=(np.inf, 0.0, 1.0)),
        ):
            with pytest.raises(ValueError):
                impute(y, mask, small_cfg((6, 5, 4), **bad))

    def test_r_bound_per_thresholded_unfolding(self):
        # dims (6, 5, 4): the unfoldings are 6 x 20, 5 x 24 and 4 x 30.
        for bad in (-1, 4, 1.5):
            with pytest.raises(ValueError, match="truncation"):
                small_cfg((6, 5, 4), r=bad).validate()
        small_cfg((6, 5, 4), r=3).validate()
        # LAMC thresholds only the 6 x 20 matrix.
        lamc_cfg((6, 5, 4), r=5).validate()
        with pytest.raises(ValueError, match="truncation"):
            lamc_cfg((6, 5, 4), r=6).validate()

    @pytest.mark.parametrize("c", [1.0, 0.0])
    def test_lag_beyond_series_rejected(self, c):
        # T = I * J = 20: the largest lag must be at most 19, also when
        # c = 0 leaves the AR half unused.
        cfg = small_cfg((6, 5, 4), c=c, lags=(1, 20))
        with pytest.raises(ValueError, match="largest lag 20"):
            cfg.validate()
        dataclasses.replace(cfg, lags=(1, 19)).validate()
        y, mask = rank1_instance(m=6, i=5, j=4, seed=30)
        for settings in MODELS.values():
            with pytest.raises(ValueError):
                impute(y, mask, dataclasses.replace(cfg, **settings))

    @pytest.mark.parametrize("model", list(MODELS))
    def test_all_zero_observations(self, model):
        # No nonzero observation: the change is measured in absolute
        # terms and the zero matrix is a fixed point of every step.
        y = np.zeros((6, 20))
        mask = np.random.default_rng(29).random(y.shape) < 0.7
        cfg = dataclasses.replace(small_cfg((6, 5, 4)), **MODELS[model])
        result = impute(y, mask, cfg)
        assert np.array_equal(result.recovered, y)
        assert result.converged
        assert result.iterations == 1

    def test_tiny_scale_measures_change(self):
        # At 1e-200 every square underflows; the norms must not read 0
        # and stop the run at its first outer iteration.
        y, mask = rank1_instance(m=6, i=12, j=4, seed=3)
        result = impute(1e-200 * y, mask, small_cfg((6, 12, 4), max_outer_iters=30))
        assert 0.0 < result.history[0].change < np.inf
        assert result.iterations > 1

    def test_huge_scale_stays_finite(self):
        # At 1e200 every square overflows: the Gram route of svt and the
        # history norms must stay finite anyway.
        y, mask = rank1_instance(m=6, i=12, j=4, seed=3)
        result = impute(1e200 * y, mask, small_cfg((6, 12, 4), max_outer_iters=30))
        assert np.all(np.isfinite(result.recovered))
        for record in result.history:
            assert np.isfinite(record.change)
            assert np.isfinite(record.primal_residual)

    def test_non_finite_data_rejected(self):
        y, mask = rank1_instance(m=6, i=5, j=4, seed=19)
        y[0, 0] = np.nan
        with pytest.raises(ValueError):
            impute(y, mask, small_cfg((6, 5, 4)))


class TestImputeLamc:
    def test_rank1_matrix_recovery(self):
        rng = np.random.default_rng(20)
        profile = 2.0 + 0.5 * np.sin(2 * np.pi * np.arange(60) / 30)
        y = np.outer(rng.uniform(1, 2, size=15), profile)
        mask = rng.random(y.shape) < 0.7
        result = impute(y, mask, lamc_cfg((15, 60, 1)))
        assert missing_relative_error(y, result, mask) < 1e-2

    def test_fully_observed_preserved(self):
        rng = np.random.default_rng(21)
        y = np.outer(rng.uniform(1, 2, size=6), rng.uniform(1, 2, size=24))
        mask = np.ones(y.shape, dtype=bool)
        result = impute(y, mask, lamc_cfg((6, 24, 1)))
        assert np.array_equal(result.recovered, y)

    def test_m1_reduction_to_tensor_form(self):
        # With one sensor and a (1, T, 1) layout, the mode-3 unfolding
        # holds the same T values as the (M, T) matrix, so thresholding
        # only mode 3 runs the fold/unfold path on the arithmetic of the
        # matrix model.
        rng = np.random.default_rng(22)
        t = 48
        y = np.sin(np.linspace(0.0, 6.0, t)).reshape(1, t) + 2.0
        mask = rng.random((1, t)) < 0.7
        cfg_matrix = lamc_cfg((1, t, 1), r=0, lags=(1, 2))
        cfg_tensor = dataclasses.replace(cfg_matrix, weights=(0.0, 0.0, 1.0))
        a = impute(y, mask, cfg_matrix)
        b = impute(y, mask, cfg_tensor)
        assert np.allclose(a.recovered, b.recovered, atol=1e-6)

    def test_matrix_truncation_bound(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=(4, 12))
        mask = np.ones(y.shape, dtype=bool)
        with pytest.raises(ValueError):
            impute(y, mask, lamc_cfg((4, 4, 3), r=4))

    def test_determinism(self):
        rng = np.random.default_rng(24)
        y = np.outer(rng.uniform(1, 2, size=8), rng.uniform(1, 2, size=30))
        mask = rng.random(y.shape) < 0.6
        cfg = lamc_cfg((8, 30, 1))
        assert np.array_equal(impute(y, mask, cfg).recovered, impute(y, mask, cfg).recovered)


class TestLrtcTnnMode:
    def test_rank1_recovery(self):
        y, mask = rank1_instance()
        result = impute(y, mask, tnn_cfg((20, 16, 10)))
        assert missing_relative_error(y, result, mask) < 1e-2

    def test_output_independent_of_lags_and_seed(self):
        y, mask = rank1_instance(m=8, i=6, j=5, seed=25)
        base = impute(y, mask, tnn_cfg((8, 6, 5), lags=(1, 2), seed=0))
        for lags, seed in [((1,), 3), ((1, 2, 3), 99), ((2, 5), 7)]:
            other = impute(y, mask, tnn_cfg((8, 6, 5), lags=lags, seed=seed))
            assert np.array_equal(base.recovered, other.recovered)

    def test_close_to_impute_with_tiny_lam(self):
        y, mask = rank1_instance(m=8, i=6, j=5, seed=26)
        pure = impute(y, mask, tnn_cfg((8, 6, 5)))
        nearly = impute(y, mask, small_cfg((8, 6, 5), c=1e-8))
        gap = np.linalg.norm(pure.recovered - nearly.recovered)
        assert gap <= 1e-4 * np.linalg.norm(pure.recovered)

    def test_coefficients_are_zero(self):
        y, mask = rank1_instance(m=6, i=5, j=4, seed=27)
        result = impute(y, mask, tnn_cfg((6, 5, 4), lags=(1, 2, 3)))
        assert np.array_equal(result.coefficients, np.zeros((6, 3)))


class TestResultType:
    def test_fields(self):
        y, mask = rank1_instance(m=6, i=5, j=4, seed=28)
        result = impute(y, mask, small_cfg((6, 5, 4)))
        assert isinstance(result, ImputationResult)
        assert result.recovered.shape == y.shape
        assert result.coefficients.shape == (6, 2)
        assert isinstance(result.converged, bool)
        assert result.iterations == len(result.history)


def test_public_surface():
    assert len(latc.__all__) == len(set(latc.__all__))
    for name in latc.__all__:
        assert getattr(latc, name) is not None
