"""Experiment harness: data files, masking patterns, metrics, artifacts.

Data files are CSV (rows = sensors, columns = time steps; empty cells
or ``nan`` tokens mark missing values) or ``.npy`` arrays with NaN for
missing; the suffix alone picks the format.  Three masking patterns
hide observed entries for evaluation:

``rm``
    random missing: every observed entry is hidden independently.
``nm``
    non-random missing: whole (sensor, day) fibers are hidden.
``bm``
    blackout missing: whole window-aligned blocks of consecutive time
    steps are hidden across all sensors at once.

Imputation quality is scored on the hidden-but-known entries with MAPE
(entries with ``|truth| <= 1e-6`` excluded and counted) and RMSE (all
hidden entries).

:data:`MODELS` is the only table of model names, and its keys are the
only accepted spellings.  Each row holds the ``SolverConfig`` fields the
model replaces before calling :func:`~latc.solver.impute`: LAMC
thresholds only the ``(M, T)`` matrix, and LRTC-TNN drops the AR term.
All CSV files, data and masks, are read by one row-by-row parser.
:func:`save_matrix` writes values in the spelling of Python's ``repr``,
the shortest decimal that reads back as the same double: ``orjson``
formats each row in C, and only the cells whose spelling it does not
share with ``repr`` are spelled again.  :func:`save_mask` builds its
whole file as one byte array.  Every ``key = value`` record, in the
text artifacts and on the command line's standard output, is formatted
by one function.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .solver import ImputationResult, SolverConfig, impute
from .tensors import frobenius_norm

PATTERNS = ("rm", "nm", "bm")
# Each model is ``impute`` with these ``SolverConfig`` fields replaced.
MODELS = {
    "latc": {},
    "lamc": {"weights": (1.0, 0.0, 0.0)},
    "lrtc-tnn": {"c": 0.0},
}
ZERO_TOLERANCE = 1e-6

_METRICS_FILE = "metrics.txt"
_HISTORY_FILE = "history.txt"
_IMPUTED_FILE = "imputed.csv"
_EVAL_MASK_FILE = "eval_mask.csv"
_CELL_FILE = "cell.txt"
_GRID_FILE = "grid.txt"


class DataError(Exception):
    """An input file could not be parsed into a valid matrix."""


@dataclass(frozen=True)
class MaskSpec:
    """Which pattern to apply, how much to hide, and the RNG seed."""

    pattern: str
    rate: float = 0.3
    window: int = 6
    seed: int = 0

    def validate(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.pattern == "bm" and self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class EvalReport:
    mape: float
    rmse: float
    n_eval: int
    excluded_zero: int


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _format_record(record) -> str:
    """One ``key = value ...`` line for a sequence of ``(key, value)`` pairs."""
    return " ".join(f"{k} = {_format_value(v)}" for k, v in record)


def _write_records(path: Path, records) -> None:
    """One :func:`_format_record` line per record."""
    path.write_text("\n".join(_format_record(record) for record in records) + "\n")


def _cell_record(c: float, r: int, report: EvalReport) -> list:
    """The summary of one (c, r) grid cell."""
    return [("c", c), ("r", r), ("mape", report.mape), ("rmse", report.rmse)]


def _fields_record(obj) -> list:
    """The fields of a dataclass instance as ``(key, value)`` pairs, in order."""
    return [(f.name, getattr(obj, f.name)) for f in fields(obj)]


def load_matrix(path):
    """Read a data file into ``(values, mask)``.

    The suffix picks the format: ``.csv`` or ``.npy``.  Missing cells
    come back as ``0.0`` with ``mask`` false.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".npy":
        return _load_binary(path)
    if suffix != ".csv":
        raise DataError(f"cannot infer format from suffix {suffix!r} of {path}")
    values = _read_csv(path, _data_cell, float)
    mask = ~np.isnan(values)
    values[~mask] = 0.0
    return values, mask


def _read_csv(path: Path, cell, dtype) -> np.ndarray:
    """Parse a CSV file into a matrix of ``dtype``, one row at a time.

    Blank lines are skipped.  ``cell`` maps one token to its value and
    raises ``ValueError`` for a bad token, which is reported with its
    row and column.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                i = len(rows) + 1
                if rows and len(row) != rows[0].size:
                    raise DataError(
                        f"{path}: row {i} has {len(row)} columns, expected {rows[0].size}"
                    )
                parsed = []
                for j, token in enumerate(row, start=1):
                    try:
                        parsed.append(cell(token))
                    except ValueError as exc:
                        raise DataError(f"{path}: {exc} at row {i}, column {j}") from exc
                rows.append(np.array(parsed, dtype=dtype))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} is empty")
    return np.vstack(rows)


def _data_cell(token: str) -> float:
    """A finite value, or NaN for an empty or ``nan`` (missing) cell."""
    token = token.strip()
    if token == "" or token.lower() == "nan":
        return math.nan
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric token {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _mask_cell(token: str) -> bool:
    token = token.strip()
    if token not in ("0", "1"):
        raise ValueError(f"mask cell must be 0 or 1, got {token!r}")
    return token == "1"


def _load_binary(path: Path):
    try:
        arr = np.load(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if arr.ndim != 2:
        raise DataError(f"{path}: expected a 2-D array, got shape {arr.shape}")
    arr = arr.astype(float)
    if np.isinf(arr).any():
        raise DataError(f"{path}: array contains infinite values")
    mask = np.isfinite(arr)
    return np.where(mask, arr, 0.0), mask


def save_matrix(path, values: np.ndarray, mask: np.ndarray | None = None) -> None:
    """Write a matrix as CSV; cells where ``mask`` is false stay empty.

    Values are spelled as Python's ``repr`` spells them: the shortest
    decimal that reads back as the same double.  Each row is formatted
    in C by ``orjson``, whose shortest round-trip digits and spelling
    equal ``repr``'s for zero and for ``1e-4 <= |v| < 1e16``.  Only the
    other cells, which are masked, non-finite or outside that range,
    are spelled again one by one.
    """
    # Imported here, not at module level, so that ``import latc`` does not
    # pay for it.
    import orjson

    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {values.shape}")
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
    magnitude = np.abs(values)
    # NaN compares false everywhere, and inf fails the upper bound.
    plain = mask & (((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0.0))
    with open(path, "wb") as fh:
        for row, row_mask, row_plain in zip(values, mask, plain):
            line = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
            if not row_plain.all():
                tokens = line.split(b",")
                for j in np.flatnonzero(~row_plain).tolist():
                    tokens[j] = repr(float(row[j])).encode() if row_mask[j] else b""
                line = b",".join(tokens)
            fh.write(line)
            fh.write(b"\n")


def load_mask(path) -> np.ndarray:
    """Read a CSV of 0/1 cells into a boolean matrix."""
    return _read_csv(Path(path), _mask_cell, bool)


def save_mask(path, mask: np.ndarray) -> None:
    """Write a boolean matrix as a CSV of 0/1 cells.

    The file is built as one byte array: each row holds a digit in its
    even columns, ``,`` in its odd ones and ``\\n`` in its last.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mask.shape}")
    m, t = mask.shape
    # At least one column, so that a row with no cells is still a line.
    text = np.full((m, max(2 * t, 1)), ord(","), dtype=np.uint8)
    text[:, 0 : 2 * t : 2] = mask + np.uint8(ord("0"))
    text[:, -1] = ord("\n")
    Path(path).write_bytes(text.tobytes())


def generate_mask(
    base: np.ndarray, dims: tuple[int, int, int], spec: MaskSpec
) -> np.ndarray:
    """Hide entries of ``base`` according to ``spec``.

    The result is an observation mask with ``result <= base``
    everywhere: already-missing entries stay missing, and only observed
    entries can be hidden.  Deterministic for a fixed seed.
    """
    spec.validate()
    m, i, j = (int(d) for d in dims)
    t = i * j
    base = np.asarray(base, dtype=bool)
    if base.shape != (m, t):
        raise ValueError(f"base mask shape {base.shape} does not match dims {dims}")
    rng = np.random.default_rng(spec.seed)
    if spec.pattern == "rm":
        hide = rng.random((m, t)) < spec.rate
    elif spec.pattern == "nm":
        fiber = rng.random((m, j)) < spec.rate
        hide = np.repeat(fiber, i, axis=1)
    else:  # bm
        slots = t // spec.window
        n_hidden = min(slots, round(spec.rate * t / spec.window))
        cols = np.zeros(t, dtype=bool)
        if n_hidden > 0:
            for s in rng.choice(slots, size=n_hidden, replace=False):
                cols[s * spec.window : (s + 1) * spec.window] = True
        hide = np.broadcast_to(cols, (m, t))
    return base & ~hide


def _check_eval_shapes(truth: np.ndarray, imputed: np.ndarray, eval_mask: np.ndarray) -> None:
    if truth.shape != imputed.shape or truth.shape != eval_mask.shape:
        raise ValueError(
            f"shape mismatch: truth {truth.shape}, imputed {imputed.shape}, "
            f"mask {eval_mask.shape}"
        )


def evaluate(truth: np.ndarray, imputed: np.ndarray, eval_mask: np.ndarray) -> EvalReport:
    """Score ``imputed`` against ``truth`` on the entries of ``eval_mask``.

    RMSE covers every selected entry, at any finite scale.  MAPE skips
    entries with ``|truth| <= ZERO_TOLERANCE`` and reports how many were
    skipped; if every selected entry is skipped the MAPE is 0 by
    convention.  The tolerance is absolute, so on data scaled far below
    it every entry is skipped.
    """
    truth = np.asarray(truth, dtype=float)
    imputed = np.asarray(imputed, dtype=float)
    eval_mask = np.asarray(eval_mask, dtype=bool)
    _check_eval_shapes(truth, imputed, eval_mask)
    n_eval = int(eval_mask.sum())
    if n_eval == 0:
        raise ValueError("evaluation mask selects no entries")
    t = truth[eval_mask]
    p = imputed[eval_mask]
    error = t - p
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean(error**2)))
    if rmse == 0.0 or rmse == math.inf:
        # The squares underflowed or overflowed; frobenius_norm rescales
        # them, and returns 0 or inf only when that is the answer.
        rmse = frobenius_norm(error) / math.sqrt(n_eval)
    nonzero = np.abs(t) > ZERO_TOLERANCE
    excluded = n_eval - int(nonzero.sum())
    if nonzero.any():
        mape = float(np.mean(np.abs(t[nonzero] - p[nonzero]) / np.abs(t[nonzero])) * 100.0)
    else:
        mape = 0.0
    return EvalReport(mape=mape, rmse=rmse, n_eval=n_eval, excluded_zero=excluded)


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"model must be one of {tuple(MODELS)}, got {model!r}")


def run_experiment(
    data_path,
    spec: MaskSpec,
    cfg: SolverConfig,
    model: str = "latc",
    out_dir=None,
) -> EvalReport:
    """Mask, impute and score one data set; optionally write artifacts.

    ``model`` names a row of :data:`MODELS`: the solver runs
    :func:`~latc.solver.impute` on ``cfg`` with that row's settings
    applied, and the configuration is validated before anything is
    written.  The artifacts written to ``out_dir`` are the imputed
    matrix (``imputed.csv``), the evaluation mask (``eval_mask.csv``, 1
    marks a scored cell), ``metrics.txt`` and per-outer-iteration
    ``history.txt`` as ``key = value`` records, and the single grid
    record ``cell.txt``; ``metrics.txt`` and ``cell.txt`` record the
    ``c`` and ``r`` of ``cfg``.  Files are removed again if writing
    fails part-way.  Outputs are byte-identical across repeated runs
    with the same inputs and seeds.
    """
    _check_model(model)
    values, base_mask = load_matrix(data_path)
    return _run_loaded(values, base_mask, spec, cfg, model, out_dir)


def _run_loaded(
    values: np.ndarray,
    base_mask: np.ndarray,
    spec: MaskSpec,
    cfg: SolverConfig,
    model: str,
    out_dir,
) -> EvalReport:
    """:func:`run_experiment` after the data file has been read."""
    observed = generate_mask(base_mask, cfg.dims, spec)
    eval_mask = base_mask & ~observed
    if not eval_mask.any():
        raise ValueError(
            "masking hid no observed entries; nothing to evaluate "
            f"(pattern={spec.pattern}, rate={spec.rate})"
        )
    result = impute(values, observed, replace(cfg, **MODELS[model]))
    report = evaluate(values, result.recovered, eval_mask)
    if out_dir is not None:
        _write_artifacts(Path(out_dir), spec, cfg, model, result, report, eval_mask)
    return report


def _write_artifacts(
    out_dir: Path,
    spec: MaskSpec,
    cfg: SolverConfig,
    model: str,
    result: ImputationResult,
    report: EvalReport,
    eval_mask: np.ndarray,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        # Each file is listed before it is opened, so a write that stops
        # part-way is removed too.
        written.append(out_dir / _IMPUTED_FILE)
        save_matrix(out_dir / _IMPUTED_FILE, result.recovered)
        written.append(out_dir / _EVAL_MASK_FILE)
        save_mask(out_dir / _EVAL_MASK_FILE, eval_mask)
        metrics = [
            ("model", model),
            ("pattern", spec.pattern),
            ("rate", spec.rate),
            ("window", spec.window),
            ("mask_seed", spec.seed),
            ("rho0", cfg.rho0),
            ("c", cfg.c),
            ("r", cfg.r),
            ("solver_seed", cfg.seed),
            *_fields_record(report),
            ("iterations", result.iterations),
            ("converged", result.converged),
        ]
        written.append(out_dir / _METRICS_FILE)
        _write_records(out_dir / _METRICS_FILE, [[item] for item in metrics])
        written.append(out_dir / _HISTORY_FILE)
        _write_records(out_dir / _HISTORY_FILE, [_fields_record(rec) for rec in result.history])
        written.append(out_dir / _CELL_FILE)
        _write_records(out_dir / _CELL_FILE, [_cell_record(cfg.c, cfg.r, report)])
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def run_sweep(
    data_path,
    spec: MaskSpec,
    cfg: SolverConfig,
    model: str,
    c_values,
    r_values,
    out_dir,
) -> list[tuple[float, int, EvalReport]]:
    """Grid of :func:`run_experiment` cells over ``c`` and ``r``.

    The data file is read once, and every cell's configuration is
    validated before the first cell runs.  Each cell writes its
    artifacts to its own subdirectory of ``out_dir``, named
    ``cell_c{c:g}_r{r}``; a grid in which two cells share that name is
    rejected before any cell runs.  One summary record per cell goes to
    ``grid.txt``.
    """
    _check_model(model)
    values, base_mask = load_matrix(data_path)
    return _sweep_loaded(values, base_mask, spec, cfg, model, c_values, r_values, out_dir)


def _sweep_loaded(
    values: np.ndarray,
    base_mask: np.ndarray,
    spec: MaskSpec,
    cfg: SolverConfig,
    model: str,
    c_values,
    r_values,
    out_dir,
) -> list[tuple[float, int, EvalReport]]:
    """:func:`run_sweep` after the data file has been read."""
    out_dir = Path(out_dir)
    cells = [replace(cfg, c=float(c), r=int(r)) for c in c_values for r in r_values]
    cell_dirs = [out_dir / f"cell_c{cell_cfg.c:g}_r{cell_cfg.r}" for cell_cfg in cells]
    for cell_cfg, cell_dir in zip(cells, cell_dirs):
        replace(cell_cfg, **MODELS[model]).validate()
        if cell_dirs.count(cell_dir) > 1:
            raise ValueError(
                f"more than one (c, r) cell maps to the directory {cell_dir.name}"
            )
    records = []
    for cell_cfg, cell_dir in zip(cells, cell_dirs):
        report = _run_loaded(values, base_mask, spec, cell_cfg, model, cell_dir)
        records.append((cell_cfg.c, cell_cfg.r, report))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_records(out_dir / _GRID_FILE, [_cell_record(*record) for record in records])
    return records
