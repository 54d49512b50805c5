"""Harness tests: file round trips, mask structure, metrics, runs, CLI.

Expected metric values are frozen from hand computation; mask properties
are structural (never unmask, fiber / window shape, fraction bounds)
checked over seeded batches.
"""

import dataclasses
import math

import numpy as np
import pytest

from latc import (
    DataError,
    MaskSpec,
    SolverConfig,
    evaluate,
    generate_mask,
    load_mask,
    load_matrix,
    run_experiment,
    run_sweep,
    save_mask,
    save_matrix,
    unfold,
)
from latc.cli import main, parse_lags


def rank1_series(m=20, i=16, j=10, seed=0):
    """Smooth rank-1 truth matrix; same AR-friendly regime as the solver
    tests, so the recovery examples have a known sharp answer."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0, 2.0, size=m)
    v = 2.0 + 0.5 * np.sin(2 * np.pi * np.arange(i) / i)
    w = 1.5 + 0.2 * np.cos(2 * np.pi * np.arange(j) / j)
    return unfold(np.einsum("a,b,c->abc", u, v, w), 1)


def experiment_cfg(dims, **overrides):
    base = dict(dims=dims, rho0=1e-4, c=0.05, r=1, lags=(1, 2), tol=1e-4, seed=0)
    base.update(overrides)
    return SolverConfig(**base)


def write_rank1_csv(tmp_path, m=20, i=16, j=10):
    truth = rank1_series(m, i, j)
    path = tmp_path / "data.csv"
    save_matrix(path, truth)
    return path, truth


class TestLoadMatrix:
    def test_small_csv_full_mask(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n3,4\n")
        values, mask = load_matrix(path)
        assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
        assert mask.all()

    def test_empty_cell_marks_missing(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,,3\n")
        values, mask = load_matrix(path)
        assert np.array_equal(values, [[1.0, 0.0, 3.0]])
        assert np.array_equal(mask, [[True, False, True]])

    def test_nan_token_marks_missing(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,nan\nNaN,4\n")
        values, mask = load_matrix(path)
        assert np.array_equal(values, [[1.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(mask, [[True, False], [False, True]])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 9)) * 1e3
        values[0, 0] = 0.1
        values[1, 2] = 1.0 / 3.0
        mask = rng.random((6, 9)) < 0.8
        path = tmp_path / "a.csv"
        save_matrix(path, values, mask)
        loaded, loaded_mask = load_matrix(path)
        assert np.array_equal(loaded_mask, mask)
        # repr round-trips doubles exactly, not just approximately
        assert np.array_equal(loaded[mask], values[mask])
        assert np.array_equal(loaded[~mask], np.zeros((~mask).sum()))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_matrix(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,abc\n")
        with pytest.raises(DataError, match="abc"):
            load_matrix(path)

    def test_infinite_value_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_matrix(tmp_path / "nope.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="empty"):
            load_matrix(path)
        with pytest.raises(DataError, match="empty"):
            load_mask(path)

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "a.dat"
        path.write_text("1,2\n")
        with pytest.raises(DataError, match="suffix"):
            load_matrix(path)

    def test_binary_round_trip(self, tmp_path):
        arr = np.array([[1.0, np.nan], [3.0, 4.0]])
        path = tmp_path / "a.npy"
        np.save(path, arr)
        values, mask = load_matrix(path)
        assert np.array_equal(values, [[1.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(mask, [[True, False], [True, True]])

    def test_binary_rejects_inf(self, tmp_path):
        path = tmp_path / "a.npy"
        np.save(path, np.array([[1.0, np.inf]]))
        with pytest.raises(DataError, match="infinite"):
            load_matrix(path)

    def test_binary_rejects_non_matrix(self, tmp_path):
        path = tmp_path / "a.npy"
        np.save(path, np.arange(5.0))
        with pytest.raises(DataError, match="2-D"):
            load_matrix(path)


class TestMaskIO:
    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = rng.random((7, 11)) < 0.5
        path = tmp_path / "mask.csv"
        save_mask(path, mask)
        assert np.array_equal(load_mask(path), mask)

    def test_rejects_non_binary_tokens(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("0,2\n")
        with pytest.raises(DataError, match="0 or 1"):
            load_mask(path)

    def test_save_matrix_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(tmp_path / "a.csv", np.arange(4.0))

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n\n3,x\n")
        with pytest.raises(DataError, match="'x' at row 2, column 2"):
            load_matrix(path)
        path.write_text("0,1\n1,1,\n")
        with pytest.raises(DataError, match="row 2 has 3 columns, expected 2"):
            load_mask(path)
        path.write_text("0,1\n1, 7\n")
        with pytest.raises(DataError, match="got '7' at row 2, column 2"):
            load_mask(path)


class TestCsvBytes:
    """The written CSV format, frozen byte for byte: other tools parse
    these files, some of them strictly."""

    values = np.array([[0.1, 1.0 / 3.0, -2.5e-07], [1e22, 3.0, -0.0]])
    mask = np.array([[True, False, True], [True, True, False]])

    def test_save_matrix_bytes(self, tmp_path):
        save_matrix(tmp_path / "holes.csv", self.values, self.mask)
        assert (tmp_path / "holes.csv").read_bytes() == b"0.1,,-2.5e-07\n1e+22,3.0,\n"
        save_matrix(tmp_path / "full.csv", self.values)
        assert (tmp_path / "full.csv").read_bytes() == (
            b"0.1,0.3333333333333333,-2.5e-07\n1e+22,3.0,-0.0\n"
        )

    def test_save_matrix_bytes_full_and_holed_rows(self, tmp_path):
        mask = np.array([[True, True, True], [False, True, True]])
        save_matrix(tmp_path / "mixed.csv", self.values, mask)
        assert (tmp_path / "mixed.csv").read_bytes() == (
            b"0.1,0.3333333333333333,-2.5e-07\n,3.0,-0.0\n"
        )

    def test_save_mask_bytes(self, tmp_path):
        save_mask(tmp_path / "mask.csv", self.mask)
        assert (tmp_path / "mask.csv").read_bytes() == b"1,0,1\n1,1,0\n"


class TestMaskSpec:
    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            MaskSpec("diagonal").validate()

    def test_rejects_rate_outside_unit_interval(self):
        with pytest.raises(ValueError, match="rate"):
            MaskSpec("rm", rate=1.5).validate()
        with pytest.raises(ValueError, match="rate"):
            MaskSpec("rm", rate=-0.1).validate()

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError, match="window"):
            MaskSpec("bm", window=0).validate()


class TestGenerateMask:
    dims = (6, 8, 12)  # T = 96

    def full_base(self):
        m, i, j = self.dims
        return np.ones((m, i * j), dtype=bool)

    def test_rate_zero_changes_nothing(self):
        rng = np.random.default_rng(0)
        base = rng.random((6, 96)) < 0.9
        for pattern in ("rm", "nm", "bm"):
            out = generate_mask(base, self.dims, MaskSpec(pattern, rate=0.0))
            assert np.array_equal(out, base)

    def test_rate_one_rm_hides_everything(self):
        out = generate_mask(self.full_base(), self.dims, MaskSpec("rm", rate=1.0))
        assert not out.any()

    def test_never_unmasks(self):
        rng = np.random.default_rng(1)
        base = rng.random((6, 96)) < 0.7
        for pattern in ("rm", "nm", "bm"):
            for seed in range(5):
                out = generate_mask(
                    base, self.dims, MaskSpec(pattern, rate=0.4, seed=seed)
                )
                assert not (out & ~base).any()

    def test_rm_fraction_within_binomial_bound(self):
        base = self.full_base()
        rate = 0.3
        n = base.sum()
        slack = 3.0 * math.sqrt(rate * (1.0 - rate) / n)
        for seed in range(1, 21):
            out = generate_mask(base, self.dims, MaskSpec("rm", rate=rate, seed=seed))
            hidden = (base & ~out).sum() / n
            assert abs(hidden - rate) <= slack

    def test_nm_hides_whole_day_fibers(self):
        m, i, j = self.dims
        for seed in range(5):
            out = generate_mask(
                self.full_base(), self.dims, MaskSpec("nm", rate=0.4, seed=seed)
            )
            by_day = out.reshape(m, j, i)
            # each (sensor, day) fiber is hidden or kept as a unit
            assert (by_day.all(axis=2) | ~by_day.any(axis=2)).all()
            assert not by_day.all()
            assert by_day.any()

    def test_bm_window_structure(self):
        # frozen structural case: window 4, rate 0.3, T = 96
        out = generate_mask(
            self.full_base(), self.dims, MaskSpec("bm", rate=0.3, window=4, seed=2)
        )
        hidden_cols = ~out[0]
        # hidden columns are complete window-aligned length-4 blocks
        slots = hidden_cols.reshape(-1, 4)
        assert (slots.all(axis=1) | ~slots.any(axis=1)).all()
        assert hidden_cols.sum() == 28  # round(0.3 * 96 / 4) = 7 windows
        assert abs(hidden_cols.mean() - 0.3) <= 4.0 / 96.0

    def test_bm_column_complete(self):
        for seed in range(5):
            out = generate_mask(
                self.full_base(), self.dims, MaskSpec("bm", rate=0.3, window=6, seed=seed)
            )
            hidden = ~out
            assert (hidden.all(axis=0) | ~hidden.any(axis=0)).all()

    def test_bm_keeps_preexisting_holes_hidden(self):
        rng = np.random.default_rng(4)
        base = rng.random((6, 96)) < 0.8
        out = generate_mask(base, self.dims, MaskSpec("bm", rate=0.3, seed=0))
        assert not (out & ~base).any()

    def test_deterministic_given_seed(self):
        base = self.full_base()
        for pattern in ("rm", "nm", "bm"):
            spec = MaskSpec(pattern, rate=0.3, seed=9)
            first = generate_mask(base, self.dims, spec)
            second = generate_mask(base, self.dims, spec)
            assert np.array_equal(first, second)
        a = generate_mask(base, self.dims, MaskSpec("rm", rate=0.3, seed=1))
        b = generate_mask(base, self.dims, MaskSpec("rm", rate=0.3, seed=2))
        assert not np.array_equal(a, b)

    def test_base_shape_must_match_dims(self):
        with pytest.raises(ValueError, match="dims"):
            generate_mask(np.ones((6, 95), dtype=bool), self.dims, MaskSpec("rm"))


class TestEvaluate:
    def test_exact_imputation_scores_zero(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        report = evaluate(truth, truth.copy(), np.ones((2, 2), dtype=bool))
        assert report.mape == 0.0
        assert report.rmse == 0.0
        assert report.n_eval == 4
        assert report.excluded_zero == 0

    def test_hand_computed_example(self):
        truth = np.array([[10.0, 20.0]])
        imputed = np.array([[11.0, 18.0]])
        report = evaluate(truth, imputed, np.ones((1, 2), dtype=bool))
        # (|10-11|/10 + |20-18|/20) / 2 * 100 and sqrt((1 + 4) / 2)
        assert report.mape == pytest.approx(10.0, abs=1e-12)
        assert report.rmse == pytest.approx(math.sqrt(2.5), abs=1e-12)
        assert report.n_eval == 2
        assert report.excluded_zero == 0

    def test_zero_truth_excluded_from_mape_only(self):
        truth = np.array([[0.0, 10.0]])
        imputed = np.array([[1.0, 11.0]])
        report = evaluate(truth, imputed, np.ones((1, 2), dtype=bool))
        assert report.mape == pytest.approx(10.0, abs=1e-12)
        assert report.rmse == pytest.approx(1.0, abs=1e-12)
        assert report.n_eval == 2
        assert report.excluded_zero == 1

    def test_all_zero_truth_gives_zero_mape(self):
        truth = np.zeros((2, 3))
        imputed = np.ones((2, 3))
        report = evaluate(truth, imputed, np.ones((2, 3), dtype=bool))
        assert report.mape == 0.0
        assert report.rmse == 1.0
        assert report.excluded_zero == 6

    def test_mask_selects_the_scored_entries(self):
        truth = np.array([[10.0, 20.0], [30.0, 40.0]])
        imputed = truth + 1.0
        mask = np.array([[True, False], [False, False]])
        report = evaluate(truth, imputed, mask)
        assert report.n_eval == 1
        assert report.rmse == pytest.approx(1.0, abs=1e-12)
        assert report.mape == pytest.approx(10.0, abs=1e-12)

    def test_empty_eval_set_raises(self):
        truth = np.ones((2, 2))
        with pytest.raises(ValueError, match="no entries"):
            evaluate(truth, truth, np.zeros((2, 2), dtype=bool))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2), dtype=bool))

    def test_scaling_moves_rmse_not_mape(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(1.0, 2.0, size=(6, 10))
        imputed = truth + rng.normal(scale=0.1, size=(6, 10))
        mask = rng.random((6, 10)) < 0.5
        base = evaluate(truth, imputed, mask)
        scaled = evaluate(3.7 * truth, 3.7 * imputed, mask)
        assert scaled.rmse == pytest.approx(3.7 * base.rmse, rel=1e-12)
        assert scaled.mape == pytest.approx(base.mape, rel=1e-12)


class TestRunExperiment:
    def test_rank1_rm_recovery_beats_one_percent_of_std(self, tmp_path):
        path, truth = write_rank1_csv(tmp_path)
        cfg = experiment_cfg((20, 16, 10))
        report = run_experiment(path, MaskSpec("rm", rate=0.3, seed=0), cfg)
        assert report.rmse < 0.01 * truth.std()
        assert report.n_eval > 0

    def test_repeated_runs_write_identical_bytes(self, tmp_path):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        cfg = experiment_cfg((8, 12, 4))
        spec = MaskSpec("rm", rate=0.3, seed=1)
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        run_experiment(path, spec, cfg, out_dir=first)
        run_experiment(path, spec, cfg, out_dir=second)
        names = sorted(p.name for p in first.iterdir())
        assert names == [
            "cell.txt",
            "eval_mask.csv",
            "history.txt",
            "imputed.csv",
            "metrics.txt",
        ]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_lrtc_tnn_equals_latc_without_ar_weight(self, tmp_path):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        spec = MaskSpec("rm", rate=0.3, seed=0)
        plain = run_experiment(
            path, spec, experiment_cfg((8, 12, 4), c=0.0), model="latc"
        )
        tnn = run_experiment(path, spec, experiment_cfg((8, 12, 4)), model="lrtc-tnn")
        assert plain == tnn

    def test_unknown_model_rejected(self, tmp_path):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        with pytest.raises(ValueError, match="model"):
            run_experiment(
                path, MaskSpec("rm"), experiment_cfg((8, 12, 4)), model="btmf"
            )

    @pytest.mark.parametrize("model", ["LAMC", "lrtc_tnn", " latc"])
    def test_model_names_are_exact(self, tmp_path, model):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        with pytest.raises(ValueError, match="model"):
            run_experiment(
                path, MaskSpec("rm"), experiment_cfg((8, 12, 4)), model=model
            )

    def test_dims_must_match_data(self, tmp_path):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        with pytest.raises(ValueError, match="dims"):
            run_experiment(path, MaskSpec("rm"), experiment_cfg((8, 12, 5)))

    def test_nothing_hidden_raises(self, tmp_path):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        with pytest.raises(ValueError, match="nothing to evaluate"):
            run_experiment(path, MaskSpec("rm", rate=0.0), experiment_cfg((8, 12, 4)))

    def test_metrics_file_matches_report(self, tmp_path):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "out"
        report = run_experiment(
            path, MaskSpec("rm", rate=0.3, seed=0), experiment_cfg((8, 12, 4)),
            out_dir=out,
        )
        entries = {}
        for line in (out / "metrics.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            entries[key] = value
        assert float(entries["mape"]) == pytest.approx(report.mape, rel=1e-11)
        assert float(entries["rmse"]) == pytest.approx(report.rmse, rel=1e-11)
        assert int(entries["n_eval"]) == report.n_eval
        assert entries["model"] == "latc"
        assert entries["pattern"] == "rm"

    def test_imputed_artifact_keeps_observed_values(self, tmp_path):
        path, truth = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "out"
        run_experiment(
            path, MaskSpec("rm", rate=0.3, seed=0), experiment_cfg((8, 12, 4)),
            out_dir=out,
        )
        imputed, full = load_matrix(out / "imputed.csv")
        eval_mask = load_mask(out / "eval_mask.csv")
        assert full.all()
        observed = ~eval_mask
        assert np.array_equal(imputed[observed], truth[observed])

    def test_preexisting_holes_never_scored(self, tmp_path):
        truth = rank1_series(8, 12, 4)
        holes = np.zeros(truth.shape, dtype=bool)
        holes[2, 5] = holes[6, 40] = True
        path = tmp_path / "data.csv"
        save_matrix(path, truth, ~holes)
        out = tmp_path / "out"
        run_experiment(
            path, MaskSpec("rm", rate=0.3, seed=0), experiment_cfg((8, 12, 4)),
            out_dir=out,
        )
        eval_mask = load_mask(out / "eval_mask.csv")
        assert not eval_mask[holes].any()

    def test_partial_artifacts_removed_on_failure(self, tmp_path, monkeypatch):
        import latc.bench as bench

        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "out"

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(bench, "save_mask", boom)
        with pytest.raises(OSError):
            run_experiment(
                path, MaskSpec("rm", rate=0.3, seed=0), experiment_cfg((8, 12, 4)),
                out_dir=out,
            )
        assert not (out / "imputed.csv").exists()
        assert not (out / "metrics.txt").exists()


class TestRunSweep:
    def test_grid_runs_every_cell(self, tmp_path, monkeypatch):
        import latc.bench as bench

        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "grid"
        cfg = experiment_cfg((8, 12, 4))
        spec = MaskSpec("rm", rate=0.3, seed=0)
        loads = []
        monkeypatch.setattr(
            bench, "load_matrix", lambda p: loads.append(p) or load_matrix(p)
        )
        records = run_sweep(path, spec, cfg, "latc", [0.05, 0.5], [1, 2], out)
        assert len(loads) == 1
        assert [(c, r) for c, r, _ in records] == [
            (0.05, 1),
            (0.05, 2),
            (0.5, 1),
            (0.5, 2),
        ]
        for c, r, report in records:
            cell = out / f"cell_c{c:g}_r{r}"
            assert (cell / "metrics.txt").exists()
            single = run_experiment(
                path, spec, dataclasses.replace(cfg, c=c, r=r), model="latc"
            )
            assert report == single
        grid_lines = (out / "grid.txt").read_text().splitlines()
        assert len(grid_lines) == 4
        assert grid_lines[0].startswith("c = 0.05 r = 1 ")


class TestParseLags:
    def test_range_form(self):
        assert parse_lags("1..6") == (1, 2, 3, 4, 5, 6)
        assert parse_lags("2..2") == (2,)

    def test_list_form(self):
        assert parse_lags("1,2,5") == (1, 2, 5)
        assert parse_lags(" 3 ") == (3,)


class TestCli:
    def impute_args(self, data, out=None, **extra):
        args = [
            "impute", "--data", str(data), "--I", "12", "--rate", "0.3",
            "--c", "0.05", "--r", "1", "--lags", "1,2", "--seed", "0",
        ]
        for key, value in extra.items():
            args += [f"--{key}", str(value)]
        if out is not None:
            args += ["--out", str(out)]
        return args

    def test_impute_reports_metrics(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "out"
        assert main(self.impute_args(path, out=out)) == 0
        lines = capsys.readouterr().out.splitlines()
        entries = dict(line.partition(" = ")[::2] for line in lines)
        assert float(entries["rmse"]) > 0.0
        assert float(entries["mape"]) > 0.0
        assert int(entries["n_eval"]) > 0
        assert (out / "metrics.txt").exists()

    def test_impute_accepts_explicit_days(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        assert main(self.impute_args(path, J="4")) == 0

    def test_eval_hand_example(self, tmp_path, capsys):
        save_matrix(tmp_path / "truth.csv", np.array([[10.0, 20.0]]))
        save_matrix(tmp_path / "imputed.csv", np.array([[11.0, 18.0]]))
        save_mask(tmp_path / "mask.csv", np.ones((1, 2), dtype=bool))
        rc = main([
            "eval",
            "--truth", str(tmp_path / "truth.csv"),
            "--imputed", str(tmp_path / "imputed.csv"),
            "--mask", str(tmp_path / "mask.csv"),
        ])
        assert rc == 0
        entries = dict(
            line.partition(" = ")[::2]
            for line in capsys.readouterr().out.splitlines()
        )
        assert float(entries["mape"]) == pytest.approx(10.0, abs=1e-10)
        assert float(entries["rmse"]) == pytest.approx(math.sqrt(2.5), rel=1e-11)

    def eval_files(self, tmp_path, truth, imputed, mask, truth_holes=None, imputed_holes=None):
        save_matrix(tmp_path / "truth.csv", truth, truth_holes)
        save_matrix(tmp_path / "imputed.csv", imputed, imputed_holes)
        save_mask(tmp_path / "mask.csv", mask)
        return [
            "eval",
            "--truth", str(tmp_path / "truth.csv"),
            "--imputed", str(tmp_path / "imputed.csv"),
            "--mask", str(tmp_path / "mask.csv"),
        ]

    def test_eval_skips_truth_holes(self, tmp_path, capsys):
        truth = np.array([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]])
        known = np.array([[True, False, True], [True, True, True]])
        imputed = truth + 1.0
        imputed[0, 1] = 1e6  # would dominate the RMSE if the hole were scored
        argv = self.eval_files(tmp_path, truth, imputed, np.ones((2, 3), dtype=bool), known)
        assert main(argv) == 0
        entries = dict(
            line.partition(" = ")[::2] for line in capsys.readouterr().out.splitlines()
        )
        assert int(entries["n_eval"]) == 5
        assert int(entries["excluded_zero"]) == 0
        assert float(entries["rmse"]) == pytest.approx(1.0, rel=1e-12)
        # Nothing is left to score when the mask selects only holes.
        only_hole = ~known
        argv = self.eval_files(tmp_path, truth, imputed, only_hole, known)
        assert main(argv) == 2
        assert "data error: evaluation mask selects no entries" in capsys.readouterr().err

    def test_eval_hole_in_scored_imputed_cell_is_data_error(self, tmp_path, capsys):
        truth = np.array([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]])
        mask = np.array([[True, False, True], [True, True, True]])
        filled = np.array([[True, True, True], [True, False, True]])
        assert main(self.eval_files(tmp_path, truth, truth, mask, None, filled)) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "row 2, column 2" in err
        # A hole outside the scored cells is not read.
        filled = np.array([[True, False, True], [True, True, True]])
        assert main(self.eval_files(tmp_path, truth, truth, mask, None, filled)) == 0

    def test_eval_shape_mismatch_is_data_error(self, tmp_path, capsys):
        argv = self.eval_files(
            tmp_path, np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2), dtype=bool)
        )
        assert main(argv) == 2
        assert "data error: shape mismatch" in capsys.readouterr().err
        argv = self.eval_files(
            tmp_path, np.ones((2, 3)), np.ones((2, 3)), np.ones((1, 3), dtype=bool)
        )
        assert main(argv) == 2

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["impute", "--I", "12"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_lags_is_usage_error(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        assert main(self.impute_args(path, lags="x")) == 1

    def test_rate_out_of_range_is_usage_error(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        assert main(self.impute_args(path, rate="1.5")) == 1

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        assert main(self.impute_args(path, model="btmf")) == 1

    @pytest.mark.parametrize("option", ["c", "rho"])
    def test_nan_config_is_usage_error(self, tmp_path, capsys, option):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "out"
        assert main(self.impute_args(path, out=out, **{option: "nan"})) == 1
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        assert main(self.impute_args(tmp_path / "nope.csv")) == 2
        assert "data error" in capsys.readouterr().err

    def test_ragged_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        assert main(self.impute_args(path)) == 2

    def test_indivisible_days_is_data_error(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)  # T = 48
        args = self.impute_args(path)
        args[args.index("--I") + 1] = "7"
        assert main(args) == 2

    def test_day_product_mismatch_is_data_error(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        assert main(self.impute_args(path, J="5")) == 2

    @pytest.mark.parametrize("model", ["latc", "lrtc-tnn"])
    def test_lag_beyond_series_is_usage_error(self, tmp_path, capsys, model):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)  # T = 48
        assert main(self.impute_args(path, lags="1,48", model=model, c="0")) == 1
        assert "largest lag 48" in capsys.readouterr().err

    def test_sweep_requires_out(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        args = [
            "sweep", "--data", str(path), "--I", "12",
            "--c", "0.05", "--r", "1", "--lags", "1,2",
        ]
        assert main(args) == 1

    def test_sweep_writes_grid(self, tmp_path, capsys):
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "grid"
        args = [
            "sweep", "--data", str(path), "--I", "12", "--rate", "0.3",
            "--c", "0.05,0.5", "--r", "1,2", "--lags", "1,2",
            "--out", str(out),
        ]
        assert main(args) == 0
        assert (out / "grid.txt").exists()
        assert len(capsys.readouterr().out.splitlines()) == 4

    @pytest.mark.parametrize(
        "c_list, r_list", [("1,10", "1,9"), ("1,-1", "1"), ("1,inf", "1")]
    )
    def test_sweep_with_invalid_later_cell_writes_nothing(
        self, tmp_path, capsys, c_list, r_list
    ):
        # (8, 12, 4): r = 9 is not below min(4, 96), c = -1 is negative
        # and c = inf is not finite.
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "grid"
        args = [
            "sweep", "--data", str(path), "--I", "12", "--c", c_list, "--r", r_list,
            "--lags", "1,2", "--out", str(out),
        ]
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "c_list, r_list", [("1,1", "1"), ("0.1234561,0.1234562", "1")]
    )
    def test_sweep_with_colliding_cells_writes_nothing(
        self, tmp_path, capsys, c_list, r_list
    ):
        # Both grids name two cells cell_c1_r1 or cell_c0.123456_r1.
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "grid"
        args = [
            "sweep", "--data", str(path), "--I", "12", "--c", c_list, "--r", r_list,
            "--lags", "1,2", "--out", str(out),
        ]
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, code", [("lamc", 0), ("latc", 1)])
    def test_r_bound_follows_model(self, tmp_path, capsys, model, code):
        # (8, 12, 4): LAMC thresholds only the 8 x 48 matrix, so r = 6 is
        # valid; LATC also thresholds the 4 x 96 unfolding.
        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        out = tmp_path / "out"
        assert main(self.impute_args(path, out=out, model=model, r=6)) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command", ["impute", "sweep"])
    def test_data_file_parsed_once(self, tmp_path, monkeypatch, capsys, command):
        import latc.bench as bench

        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)
        loads = []
        monkeypatch.setattr(
            bench, "load_matrix", lambda p: loads.append(p) or load_matrix(p)
        )
        args = self.impute_args(path, out=tmp_path / "out")
        if command == "sweep":
            args[0] = "sweep"
            args[args.index("--c") + 1] = "0.05,0.5"
        assert main(args) == 0
        assert loads == [str(path)]

    def test_solver_failure_maps_to_exit_three(self, tmp_path, monkeypatch, capsys):
        import latc.bench as bench

        path, _ = write_rank1_csv(tmp_path, m=8, i=12, j=4)

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(bench, "impute", boom)
        assert main(self.impute_args(path)) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_all_zero_data_runs(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        save_matrix(path, np.zeros((6, 48)))
        assert main(["impute", "--data", str(path), "--I", "12", "--r", "1"]) == 0
        entries = dict(
            line.partition(" = ")[::2]
            for line in capsys.readouterr().out.splitlines()
        )
        assert float(entries["rmse"]) == 0.0
        assert int(entries["n_eval"]) > 0
        assert entries["excluded_zero"] == entries["n_eval"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "impute" in capsys.readouterr().out
