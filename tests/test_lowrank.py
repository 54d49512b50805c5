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

from latc import svt, tensor_tnn, truncated_nuclear_norm, unfold


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
