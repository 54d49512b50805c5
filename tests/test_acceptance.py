"""Acceptance gate.

One test per shipping criterion, each printing a single
``criterion N (...): PASS/FAIL`` line with the measured values before
asserting.  Tolerances and budgets are fixed here on purpose; run with
``pytest -s tests/test_acceptance.py`` to see the lines for passing
tests too.

The real-data reproduction (criterion 7) needs an external download and
is skipped unless ``LATC_GUANGZHOU_DATA`` points at the data file.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from latc import (
    MaskSpec,
    SolverConfig,
    build_lag_structure,
    evaluate,
    factor_z_matrix,
    generate_mask,
    impute,
    load_matrix,
    project,
    run_experiment,
    solve_z_matrix,
    svt,
    update_coefficients,
    unfold,
)
from latc.bench import MODELS
from oracles import solve_z_vectorized


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} {detail}")


# ---------------------------------------------------------------- helpers


def batch_objectives(candidates, anchor, r, tau):
    """tau * (sum of singular values after the first r) + half squared
    distance to the prox anchor, for a stack of candidates; ``anchor``,
    ``r`` and ``tau`` are shared or given per candidate."""
    s = np.linalg.svd(candidates, compute_uv=False)
    tail = np.arange(s.shape[-1]) >= np.asarray(r)[..., None]
    fit = 0.5 * ((candidates - anchor) ** 2).sum(axis=(-2, -1))
    return tau * (s * tail).sum(axis=-1) + fit


def refine(starts, anchors, r, tau, steps=500):
    """Subgradient descent on a stack of cases at once, keeping each
    case's best value seen; a case's step halves whenever its move fails
    to improve."""
    tail = np.arange(starts.shape[-1]) >= r[:, None]
    best = starts.copy()
    best_obj = batch_objectives(best, anchors, r, tau)
    point = best
    step = np.full(len(starts), 0.5)
    for _ in range(steps):
        u, _, vh = np.linalg.svd(point, full_matrices=False)
        grad = tau[:, None, None] * ((u * tail[:, None, :]) @ vh) + (point - anchors)
        point = point - step[:, None, None] * grad
        obj = batch_objectives(point, anchors, r, tau)
        improved = obj < best_obj - 1e-15
        best_obj = np.where(improved, obj, best_obj)
        best = np.where(improved[:, None, None], point, best)
        step = np.where(improved, step, 0.5 * step)
        point = best
    return best_obj


def smooth_circ(x, k):
    """Circular moving average of width k (via FFT)."""
    kernel = np.fft.fft(np.ones(k) / k, len(x))
    return np.real(np.fft.ifft(np.fft.fft(x) * kernel))


def rank3_instance(m=30, i=24, j=14, seed=3):
    """Rank-3 ground truth with positive, smoothly varying factors.

    Smooth temporal profiles keep each flattened series predictable from
    its own recent lags, which is the data regime the AR-regularized
    solver targets; random sign-flipping factors would not be.
    """
    rng = np.random.default_rng(seed)
    tensor = np.zeros((m, i, j))
    for _ in range(3):
        u = 0.5 + 0.25 * rng.standard_normal(m)
        v = 1.0 + 0.4 * smooth_circ(rng.standard_normal(i), 8)
        w = 0.67 + 0.2 * smooth_circ(rng.standard_normal(j), 3)
        tensor += np.einsum("a,b,c->abc", u, v, w)
    return unfold(tensor, 1)


def held_out_relative_rmse(truth, recovered, eval_mask):
    gap = (truth - recovered)[eval_mask]
    return float(np.linalg.norm(gap) / np.linalg.norm(truth[eval_mask]))


def rank1_series(m=8, i=12, j=4, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0, 2.0, size=m)
    v = 2.0 + 0.5 * np.sin(2 * np.pi * np.arange(i) / i)
    w = 1.5 + 0.2 * np.cos(2 * np.pi * np.arange(j) / j)
    return unfold(np.einsum("a,b,c->abc", u, v, w), 1)


# -------------------------------------------------------------- criteria


def test_criterion_1_svt_optimality():
    """svt output is a global minimizer of the thresholding objective:
    no random candidate or gradient refinement beats it beyond 1e-8."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    n_candidates = 10_000
    cases = []  # (anchor, r, tau, svt answer, best random candidate)
    for _ in range(20):
        anchor = rng.standard_normal((5, 5))
        directions = rng.standard_normal((n_candidates, 5, 5))
        scales = np.logspace(-4, 0.5, n_candidates)[:, None, None]
        for r in (0, 1, 2):
            for tau in (0.1, 1.0):
                answer = svt(anchor, r, tau)
                candidates = answer + scales * directions
                rival = batch_objectives(candidates, anchor, r, tau).min()
                cases.append((anchor, r, tau, answer, rival))
    anchors, rs, taus, answers, rivals = (np.array(col) for col in zip(*cases))
    answer_objs = batch_objectives(answers, anchors, rs, taus)
    # Refine from the answer and from the anchor: two starts per case.
    refined = refine(
        np.concatenate([answers, anchors]),
        np.concatenate([anchors, anchors]),
        np.concatenate([rs, rs]),
        np.concatenate([taus, taus]),
    ).reshape(2, -1)
    rivals = np.minimum(rivals, refined.min(axis=0))
    worst_gap = float((answer_objs - rivals).max())
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-8 and elapsed < 10.0
    report(1, "svt optimality", ok,
           f"worst objective gap {worst_gap:.3e} (<= 1e-8), {elapsed:.1f}s (< 10s)")
    assert worst_gap <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_banded_vectorized_equivalence():
    """The Z-step solve (FFT with a Woodbury correction) and the stacked
    Kronecker solve are the same linear system: answers agree to 1e-8
    relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    alphas = (0.1, 1.0, 10.0)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(1, 4))
        subsets = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
        lags = subsets[int(rng.integers(len(subsets)))]
        t = int(rng.integers(max(lags) + 2, 25))
        structure = build_lag_structure(lags, t)
        coeffs = rng.standard_normal((m, len(lags)))
        x = rng.standard_normal((m, t))
        alpha = alphas[trial % len(alphas)]
        solved = solve_z_matrix(x, factor_z_matrix(coeffs, structure, alpha))
        stacked = solve_z_vectorized(x, coeffs, structure, alpha)
        gap = np.linalg.norm(solved - stacked) / np.linalg.norm(stacked)
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    report(2, "Z-step vs stacked AR solve", ok,
           f"worst relative gap {worst:.3e} (<= 1e-8), {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_3_ar_coefficient_recovery():
    """Least squares recovers the generating coefficients of noiseless
    AR series exactly (to rounding)."""
    started = time.perf_counter()
    z1 = np.empty((1, 50))
    z1[0, 0] = 1.0
    for t in range(1, 50):
        z1[0, t] = 0.5 * z1[0, t - 1]
    a1 = update_coefficients(z1, build_lag_structure((1,), 50))
    gap1 = abs(float(a1[0, 0]) - 0.5)

    z2 = np.empty((1, 50))
    z2[0, 0], z2[0, 1] = 1.0, 0.7
    for t in range(2, 50):
        z2[0, t] = 0.6 * z2[0, t - 1] + 0.3 * z2[0, t - 2]
    a2 = update_coefficients(z2, build_lag_structure((1, 2), 50))
    gap2 = float(np.abs(a2[0] - np.array([0.6, 0.3])).max())
    elapsed = time.perf_counter() - started
    ok = gap1 <= 1e-10 and gap2 <= 1e-8 and elapsed < 1.0
    report(3, "AR coefficient recovery", ok,
           f"AR(1) gap {gap1:.2e} (<= 1e-10), AR(2) gap {gap2:.2e} (<= 1e-8), "
           f"{elapsed:.2f}s (< 1s)")
    assert gap1 <= 1e-10
    assert gap2 <= 1e-8
    assert elapsed < 1.0


def test_criterion_4_synthetic_completion():
    """Rank-3 completion: random missing recovers to < 5% relative
    error; blackout missing recovers to < 15% and beats the plain
    truncated-nuclear-norm run, which has no way to bridge windows where
    every sensor is dark."""
    started = time.perf_counter()
    dims = (30, 24, 14)
    truth = rank3_instance(*dims)
    base = np.ones(truth.shape, dtype=bool)
    cfg = SolverConfig(dims=dims, rho0=1e-4, c=1.0, r=3,
                       lags=(1, 2, 3, 4, 5, 6), tol=1e-4, seed=0)

    observed_rm = generate_mask(base, dims, MaskSpec("rm", rate=0.3, seed=11))
    rm_result = impute(project(truth, observed_rm), observed_rm, cfg)
    rm_rel = held_out_relative_rmse(truth, rm_result.recovered, ~observed_rm)

    observed_bm = generate_mask(base, dims, MaskSpec("bm", rate=0.3, window=6, seed=11))
    bm_input = project(truth, observed_bm)
    bm_latc = impute(bm_input, observed_bm, cfg)
    bm_plain = impute(bm_input, observed_bm, dataclasses.replace(cfg, **MODELS["lrtc-tnn"]))
    bm_rel = held_out_relative_rmse(truth, bm_latc.recovered, ~observed_bm)
    bm_rel_plain = held_out_relative_rmse(truth, bm_plain.recovered, ~observed_bm)

    elapsed = time.perf_counter() - started
    ok = rm_rel < 0.05 and bm_rel < 0.15 and bm_rel <= bm_rel_plain and elapsed < 60.0
    report(4, "synthetic completion", ok,
           f"RM rel RMSE {rm_rel:.4f} (< 0.05), BM rel RMSE {bm_rel:.4f} (< 0.15), "
           f"plain TNN BM {bm_rel_plain:.4f} (>= LATC), {elapsed:.1f}s (< 60s)")
    assert rm_rel < 0.05
    assert bm_rel < 0.15
    assert bm_rel <= bm_rel_plain
    assert elapsed < 60.0


def test_criterion_5_variant_identities():
    """With the AR weight at zero the solver IS the plain truncated
    nuclear norm run: identical trajectory, and lag set / seed have no
    effect on the output."""
    truth = rank1_series()
    rng = np.random.default_rng(2)
    mask = rng.random(truth.shape) < 0.7
    y = project(truth, mask)
    cfg = SolverConfig(dims=(8, 12, 4), rho0=1e-4, c=0.0, r=1,
                       lags=(1, 2), tol=1e-6, seed=0)

    trail_a, trail_b = [], []
    out_a = impute(y, mask, cfg,
                   callback=lambda s: trail_a.append((s.x, s.z, s.dual, s.rho)))
    # The LRTC-TNN row of the model table must zero a nonzero c.
    tnn_cfg = dataclasses.replace(dataclasses.replace(cfg, c=1.0), **MODELS["lrtc-tnn"])
    out_b = impute(y, mask, tnn_cfg,
                   callback=lambda s: trail_b.append((s.x, s.z, s.dual, s.rho)))
    same_length = len(trail_a) == len(trail_b) > 0
    same_states = same_length and all(
        np.array_equal(xa, xb) and np.array_equal(za, zb)
        and np.array_equal(da, db) and ra == rb
        for (xa, za, da, ra), (xb, zb, db, rb) in zip(trail_a, trail_b)
    )
    same_output = np.array_equal(out_a.recovered, out_b.recovered)

    other_lags = impute(y, mask, dataclasses.replace(cfg, lags=(1, 2, 3, 4, 5, 6)))
    other_seed = impute(y, mask, dataclasses.replace(cfg, seed=99))
    lag_free = np.array_equal(out_a.recovered, other_lags.recovered)
    seed_free = np.array_equal(out_a.recovered, other_seed.recovered)

    ok = same_states and same_output and lag_free and seed_free
    report(5, "variant identities", ok,
           f"trajectory identical over {len(trail_a)} steps: {same_states}, "
           f"lag-independent: {lag_free}, seed-independent: {seed_free}")
    assert same_states
    assert same_output
    assert lag_free
    assert seed_free


def test_criterion_6_protocol_invariants(tmp_path):
    """Observation consistency, byte-level determinism of artifacts,
    mask fraction bounds, blackout column completeness."""
    truth = rank1_series()
    rng = np.random.default_rng(3)
    mask = rng.random(truth.shape) < 0.7
    cfg = SolverConfig(dims=(8, 12, 4), rho0=1e-4, c=1.0, r=1,
                       lags=(1, 2), tol=1e-4, seed=0)
    result = impute(project(truth, mask), mask, cfg)
    consistent = np.array_equal(result.recovered[mask], truth[mask])

    from latc.bench import save_matrix
    data_path = tmp_path / "data.csv"
    save_matrix(data_path, truth)
    spec = MaskSpec("rm", rate=0.3, seed=5)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_experiment(data_path, spec, cfg, out_dir=d)
    names = sorted(p.name for p in dirs[0].iterdir())
    deterministic = bool(names) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )

    dims = (6, 8, 12)
    base = np.ones((6, 96), dtype=bool)
    rate = 0.3
    slack = 3.0 * math.sqrt(rate * (1.0 - rate) / base.sum())
    fractions_ok = True
    for seed in range(1, 21):
        out = generate_mask(base, dims, MaskSpec("rm", rate=rate, seed=seed))
        hidden = (base & ~out).sum() / base.sum()
        fractions_ok = fractions_ok and abs(hidden - rate) <= slack

    bm_ok = True
    for seed in range(1, 21):
        out = generate_mask(base, dims, MaskSpec("bm", rate=rate, window=6, seed=seed))
        hidden = ~out
        bm_ok = bm_ok and bool((hidden.all(axis=0) | ~hidden.any(axis=0)).all())

    ok = consistent and deterministic and fractions_ok and bm_ok
    report(6, "protocol invariants", ok,
           f"observed entries exact: {consistent}, artifacts byte-identical: "
           f"{deterministic}, RM fractions in bound: {fractions_ok}, "
           f"BM column-complete: {bm_ok}")
    assert consistent
    assert deterministic
    assert fractions_ok
    assert bm_ok


@pytest.mark.skipif(
    "LATC_GUANGZHOU_DATA" not in os.environ,
    reason="optional real-data check; set LATC_GUANGZHOU_DATA to the data file",
)
def test_criterion_7_guangzhou_reproduction():
    """Optional full-scale check against published Guangzhou results
    (30% random missing, c=10, r=30): MAPE 5.71, RMSE 2.54, within 10%.
    Needs the external data set, hence opt-in; mask randomness makes the
    match approximate by nature."""
    values, base = load_matrix(os.environ["LATC_GUANGZHOU_DATA"])
    m, t = values.shape
    steps_per_day = 144
    dims = (m, steps_per_day, t // steps_per_day)
    assert dims[1] * dims[2] == t
    cfg = SolverConfig(dims=dims, rho0=1e-4, c=10.0, r=30,
                       lags=(1, 2, 3, 4, 5, 6), tol=1e-4, seed=0)
    observed = generate_mask(base, dims, MaskSpec("rm", rate=0.3, seed=0))
    result = impute(project(values, observed), observed, cfg)
    rep = evaluate(values, result.recovered, base & ~observed)
    mape_ok = abs(rep.mape - 5.71) <= 0.571
    rmse_ok = abs(rep.rmse - 2.54) <= 0.254
    ok = mape_ok and rmse_ok
    report(7, "published-result reproduction", ok,
           f"MAPE {rep.mape:.2f} (target 5.71 +/- 10%), "
           f"RMSE {rep.rmse:.2f} (target 2.54 +/- 10%)")
    assert mape_ok
    assert rmse_ok
