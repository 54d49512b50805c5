"""Truncated nuclear norm and thresholding tests.

The thresholding step claims to minimize

    f(X) = tau * ||X||_{r,*} + 0.5 * ||X - Z||_F^2.

Instead of trusting the closed form, ``descend`` below polishes any
candidate by subgradient descent with backtracking (each accepted step
strictly decreases f), so if the closed form were off the polish would
find a strictly better point.
"""

import numpy as np
import pytest
from oracles import svt_exact

import latc.solver as solver
from latc import SolverConfig, svt, tensor_tnn, truncated_nuclear_norm, unfold, update_x

# Contract of the Gram route: ||svt(A) - svt_exact(A)||_F <= SVT_EPS * ||A||_F.
SVT_EPS = 1e-10


def tnn_objective(x, z, r, tau):
    return tau * truncated_nuclear_norm(x, r) + 0.5 * np.sum((x - z) ** 2)


def descend(x0, z, r, tau, steps=200):
    """Monotone subgradient polish of the objective above."""
    x = x0.copy()
    best = tnn_objective(x, z, r, tau)
    step = 0.5
    for _ in range(steps):
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        grad = tau * (u[:, r:] @ vh[r:, :]) + (x - z)
        cand = x - step * grad
        val = tnn_objective(cand, z, r, tau)
        if val < best:
            x, best = cand, val
        else:
            step *= 0.5
    return x, best


class TestSvd:
    """The input guard in front of every SVD the module takes."""

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.array([[1.0, bad], [0.0, 1.0]])
            with pytest.raises(ValueError):
                svt(a, 0, 1.0)
            with pytest.raises(ValueError):
                truncated_nuclear_norm(a, 0)


class TestTruncatedNuclearNorm:
    def test_diag_example(self):
        z = np.diag([5.0, 3.0, 1.0])
        assert truncated_nuclear_norm(z, 1) == pytest.approx(4.0, abs=1e-12)

    def test_r_zero_is_nuclear_norm(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 6))
        s = np.linalg.svd(a, compute_uv=False)
        assert truncated_nuclear_norm(a, 0) == pytest.approx(s.sum(), rel=1e-12)

    def test_matches_svd_tail(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 5))
        s = np.linalg.svd(a, compute_uv=False)
        for r in range(5):
            assert truncated_nuclear_norm(a, r) == pytest.approx(
                s[r:].sum(), rel=1e-12
            )

    def test_monotone_in_r(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        vals = [truncated_nuclear_norm(a, r) for r in range(5)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_zero_matrix(self):
        assert truncated_nuclear_norm(np.zeros((3, 4)), 2) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            truncated_nuclear_norm(np.zeros((3, 4)), 3)
        with pytest.raises(ValueError):
            truncated_nuclear_norm(np.zeros((3, 4)), -1)


class TestSvt:
    def test_diag_example(self):
        # r = 1, tau = 1: keep 5, shrink 3 -> 2 and 1 -> 0.
        z = np.diag([5.0, 3.0, 1.0])
        out = svt(z, 1, 1.0)
        assert np.allclose(np.sort(np.diag(out))[::-1], [5.0, 2.0, 0.0], atol=1e-10)
        assert np.allclose(out - np.diag(np.diag(out)), 0.0, atol=1e-10)

    def test_tau_zero_identity(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 7))
        assert np.allclose(svt(z, 2, 0.0), z, atol=1e-10)

    def test_spectrum_rule(self):
        # Leading r singular values untouched, the rest soft-thresholded.
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 6))
        s = np.linalg.svd(z, compute_uv=False)
        for r, tau in [(0, 0.5), (2, 0.8), (4, 10.0)]:
            out_s = np.linalg.svd(svt(z, r, tau), compute_uv=False)
            expected = np.concatenate([s[:r], np.maximum(s[r:] - tau, 0.0)])
            expected = np.sort(expected)[::-1]
            assert np.allclose(out_s, expected, atol=1e-10)

    def test_large_tau_truncates_to_rank_r(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 5))
        s = np.linalg.svd(z, compute_uv=False)
        out = svt(z, 2, s[0] + 1.0)
        assert np.linalg.matrix_rank(out, tol=1e-8) <= 2

    def test_oracle_first_order_optimality(self):
        # Perturbations of the output never improve the objective.
        rng = np.random.default_rng(7)
        for trial in range(20):
            z = rng.normal(size=(5, 5))
            r = trial % 3
            tau = [0.1, 1.0][trial % 2]
            out = svt(z, r, tau)
            base = tnn_objective(out, z, r, tau)
            for eps in (1e-3, 1e-4):
                for _ in range(25):
                    e = rng.normal(size=(5, 5))
                    e /= np.linalg.norm(e)
                    assert tnn_objective(out + eps * e, z, r, tau) >= base - 1e-12

    def test_oracle_descent_cannot_improve(self):
        rng = np.random.default_rng(8)
        for trial in range(6):
            z = rng.normal(size=(5, 5))
            r = trial % 3
            tau = [0.1, 1.0][trial % 2]
            out = svt(z, r, tau)
            base = tnn_objective(out, z, r, tau)
            for x0 in (out, z, rng.normal(size=(5, 5))):
                _, polished = descend(x0, z, r, tau)
                assert base <= polished + 1e-8

    def test_never_grows_the_norm(self):
        # Singular values only shrink, so the Frobenius norm cannot grow.
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(6, 4))
            for r, tau in [(0, 0.7), (2, 1.3), (3, 0.0)]:
                assert np.linalg.norm(svt(a, r, tau)) <= np.linalg.norm(a) + 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            svt(np.zeros((3, 3)), 3, 1.0)
        with pytest.raises(ValueError):
            svt(np.zeros((3, 3)), 1, -0.5)
        with pytest.raises(ValueError):
            svt(np.array([[1.0, np.nan], [0.0, 1.0]]), 0, 1.0)


def relative_gap(a, r, tau):
    """``||svt - svt_exact||_F / ||a||_F``, taken at the scale of ``max|a|``."""
    peak = np.max(np.abs(a))
    gap = (svt(a, r, tau) - svt_exact(a, r, tau)) / peak
    return np.linalg.norm(gap) / np.linalg.norm(a / peak)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record the shape of every ``numpy.linalg.eigh`` input."""
    calls = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


class TestSvtGramRoute:
    """Matrices with one side at least twice the other go through eigh."""

    @pytest.mark.parametrize("shape", [(12, 60), (60, 12)])
    @pytest.mark.parametrize(
        "r, tau", [(0, 0.0), (0, 0.5), (3, 2.0), (5, 8.0), (11, 0.0), (11, 3.0)]
    )
    def test_wide_and_tall(self, shape, r, tau, eigh_calls):
        a = np.random.default_rng(30).normal(size=shape)
        assert relative_gap(a, r, tau) <= SVT_EPS
        assert eigh_calls == [(12, 12)]

    @pytest.mark.parametrize("shape", [(10, 40), (40, 10)])
    @pytest.mark.parametrize("r, tau", [(0, 0.0), (1, 1e-3), (2, 1.0), (9, 0.5)])
    def test_rank_deficient(self, shape, r, tau):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(shape[0], 3)) @ rng.normal(size=(3, shape[1]))
        assert relative_gap(a, r, tau) <= SVT_EPS

    @pytest.mark.parametrize("shape", [(5, 20), (20, 5)])
    def test_zero_matrix(self, shape):
        out = svt(np.zeros(shape), 1, 0.5)
        assert np.array_equal(out, np.zeros(shape))
        assert np.array_equal(out, svt_exact(np.zeros(shape), 1, 0.5))

    def test_aspect_two_takes_gram(self, eigh_calls):
        a = np.random.default_rng(33).normal(size=(50, 100))
        assert relative_gap(a, 4, 1.5) <= SVT_EPS
        assert eigh_calls == [(50, 50)]

    @pytest.mark.parametrize("shape", [(100, 199), (199, 100), (5, 5)])
    def test_aspect_below_two_is_exact(self, shape, eigh_calls):
        a = np.random.default_rng(34).normal(size=shape)
        assert np.array_equal(svt(a, 4, 1.5), svt_exact(a, 4, 1.5))
        assert eigh_calls == []

    @pytest.mark.parametrize("shape", [(6, 48), (48, 6)])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_data_scales(self, shape, scale):
        # The input is scaled by a power of two before it is squared, so
        # neither underflow nor overflow reaches the Gram matrix.
        a = scale * np.random.default_rng(35).normal(size=shape)
        for r, tau in [(0, 0.5), (2, 2.0), (5, 0.0)]:
            assert relative_gap(a, r, scale * tau) <= SVT_EPS

    def test_update_x_gz_shape(self, monkeypatch):
        # A (214, 144, 61) tensor: unfoldings of (214, 8784), (144, 13054)
        # and (61, 30816), all on the Gram route.  Level, daily profile,
        # sensor loadings and noise at traffic-speed magnitudes; rho is
        # the solver's default starting penalty.
        rho = 1e-4
        rng = np.random.default_rng(36)
        dims = (214, 144, 61)
        profile = np.sin(2 * np.pi * np.arange(144) / 144)
        loading, day = rng.normal(size=214), rng.normal(1.0, 0.1, size=61)
        t = 60.0 + 10.0 * np.einsum("a,b,c->abc", loading, profile, day)
        t += rng.normal(size=dims)
        w = unfold(t, 1)
        cfg = SolverConfig(dims=dims, r=30)
        gram = update_x(w, cfg, rho)
        monkeypatch.setattr(solver, "svt", svt_exact)
        exact = update_x(w, cfg, rho)
        assert np.linalg.norm(gram - exact) <= SVT_EPS * np.linalg.norm(w)


class TestTensorTnn:
    def test_zero_tensor(self):
        assert tensor_tnn(np.zeros((3, 4, 5)), 1, (1 / 3, 1 / 3, 1 / 3)) == 0.0

    def test_rank_one_r1_vanishes(self):
        # Every unfolding of an outer product has rank one.
        rng = np.random.default_rng(10)
        t = np.einsum(
            "i,j,k->ijk",
            rng.normal(size=4),
            rng.normal(size=5),
            rng.normal(size=6),
        )
        assert tensor_tnn(t, 1, (1 / 3, 1 / 3, 1 / 3)) == pytest.approx(0.0, abs=1e-10)

    def test_matches_weighted_sum_of_unfoldings(self):
        rng = np.random.default_rng(11)
        t = rng.normal(size=(3, 4, 5))
        w = (0.2, 0.3, 0.5)
        expected = sum(
            w[p - 1] * truncated_nuclear_norm(unfold(t, p), 2) for p in (1, 2, 3)
        )
        assert tensor_tnn(t, 2, w) == pytest.approx(expected, rel=1e-12)

    def test_weight_validation(self):
        t = np.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            tensor_tnn(t, 1, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            tensor_tnn(t, 1, (-0.2, 0.6, 0.6))

    def test_truncation_bound_uses_smallest_dim(self):
        with pytest.raises(ValueError):
            tensor_tnn(np.zeros((2, 5, 5)), 2, (1 / 3, 1 / 3, 1 / 3))

    def test_zero_weight_modes_skipped(self):
        # r = 2 is out of range for the (2, 24) mode-3 unfolding, which
        # carries no weight; only the (4, 12) mode-1 unfolding counts.
        t = np.random.default_rng(12).normal(size=(4, 6, 2))
        expected = truncated_nuclear_norm(unfold(t, 1), 2)
        assert tensor_tnn(t, 2, (1.0, 0.0, 0.0)) == expected
