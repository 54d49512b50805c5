"""Output checks for one benchmark run, written independently of ``latc``.

Nothing here imports ``latc``: masks, metrics and the historical-average
baseline are recomputed from the written files and the generator's
truth, so a fault in the program's own scoring code cannot hide itself.

Every check returns a list of violations; an empty list means the run
passed.  The checks are

(a) every cell the solver observed holds the input value bit for bit;
(b) every cell of ``imputed.csv`` is finite;
(c) RMSE and MAPE recomputed here agree with what the program printed
    and wrote, to ``RTOL``;
(d) the evaluation mask only hides cells observed in the input and has
    the structure of its pattern;
(e) where asked for: the run converged and beats a per-sensor,
    time-of-day historical-average fill of the same observed cells.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Printed figures carry 12 significant digits.
RTOL = 1e-9
ZERO_TOLERANCE = 1e-6
# Random-missing hidden share must lie within this many binomial sigmas.
BINOMIAL_SIGMAS = 6.0


def parse_record(line: str) -> dict[str, str]:
    """One ``key = value key = value ...`` line, as the program prints and writes."""
    tokens = line.split()
    if len(tokens) % 3 or any(tokens[k + 1] != "=" for k in range(0, len(tokens), 3)):
        raise ValueError(f"malformed record {line!r}")
    return {tokens[k]: tokens[k + 2] for k in range(0, len(tokens), 3)}


def read_mask(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """Parse a 0/1 CSV of ``shape``; raises ``ValueError`` on any other layout."""
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    m, t = shape
    digits = raw[(raw == ord("0")) | (raw == ord("1"))]
    commas = int(np.count_nonzero(raw == ord(",")))
    newlines = int(np.count_nonzero(raw == ord("\n")))
    if digits.size != m * t or commas != m * (t - 1) or newlines != m:
        raise ValueError(f"{path}: not a {m}x{t} 0/1 matrix")
    if digits.size + commas + newlines != raw.size:
        raise ValueError(f"{path}: stray characters")
    return (digits == ord("1")).reshape(m, t)


def scores(truth: np.ndarray, estimate: np.ndarray, cells: np.ndarray) -> tuple[float, float]:
    """(RMSE, MAPE in %) of ``estimate`` on ``cells``; MAPE skips near-zero truth."""
    t = truth[cells]
    p = estimate[cells]
    rmse = math.sqrt(float(np.mean((t - p) ** 2)))
    nonzero = np.abs(t) > ZERO_TOLERANCE
    mape = float(np.mean(np.abs(t[nonzero] - p[nonzero]) / np.abs(t[nonzero]))) * 100.0
    return rmse, mape


def historical_average_rmse(truth: np.ndarray, observed: np.ndarray,
                            hidden: np.ndarray, periods: int) -> float:
    """RMSE of filling each hidden cell with its sensor's time-of-day mean."""
    m, t = truth.shape
    days = t // periods
    seen = np.where(observed, truth, np.nan).reshape(m, days, periods)
    counts = np.sum(observed.reshape(m, days, periods), axis=1)
    sums = np.nansum(seen, axis=1)
    sensor_mean = np.nanmean(seen.reshape(m, -1), axis=1, keepdims=True)
    profile = np.where(counts > 0, sums / np.maximum(counts, 1), sensor_mean)
    fill = np.broadcast_to(profile[:, None, :], (m, days, periods)).reshape(m, t)
    return scores(truth, fill, hidden)[0]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def check_mask(hidden: np.ndarray, base: np.ndarray, pattern: dict) -> list[str]:
    """(d): ``hidden`` is inside ``base`` and has the pattern's structure."""
    problems = []
    if np.any(hidden & ~base):
        problems.append("(d) eval mask hides cells missing in the input")
    m, t = base.shape
    rate = pattern["rate"]
    if pattern["name"] == "rm":
        n = int(base.sum())
        share = float(hidden.sum()) / n
        tolerance = BINOMIAL_SIGMAS * math.sqrt(rate * (1.0 - rate) / n)
        if abs(share - rate) > tolerance:
            problems.append(f"(d) rm hidden share {share:.5f} not within "
                            f"{tolerance:.5f} of {rate}")
    elif pattern["name"] == "bm":
        window = pattern["window"]
        known = base.any(axis=0)
        cols = hidden.any(axis=0)
        # a hidden column is dark across every sensor that has data there
        if np.any(cols & np.any(base & ~hidden, axis=0)):
            problems.append("(d) bm column hidden for some sensors only")
        slots = t // window
        blocks = cols[: slots * window].reshape(slots, window)
        seen = known[: slots * window].reshape(slots, window)
        partial = np.any(blocks, axis=1) & np.any(~blocks & seen, axis=1)
        if np.any(partial) or np.any(cols[slots * window:]):
            problems.append("(d) bm hidden columns are not whole window-aligned blocks")
        expected = min(slots, round(rate * t / window))
        if int(np.any(blocks, axis=1).sum()) != expected:
            problems.append(f"(d) bm hides {int(np.any(blocks, axis=1).sum())} "
                            f"blocks, expected {expected}")
    else:
        problems.append(f"(d) unknown pattern {pattern['name']!r}")
    return problems


def check_cell(cell_dir: Path, truth: np.ndarray, pattern: dict, periods: int,
               reported: dict[str, float]) -> tuple[list[str], dict]:
    """Checks (a)-(d) on one artifact directory.

    ``reported`` holds the ``rmse`` and ``mape`` the program printed or
    returned.  The second result carries what the checks derived: the
    recomputed scores, whether the run converged and the
    historical-average RMSE, for :func:`check_quality` and the metrics.
    """
    base = np.isfinite(truth)
    problems = []
    try:
        imputed = np.loadtxt(cell_dir / "imputed.csv", delimiter=",", ndmin=2)
        hidden = read_mask(cell_dir / "eval_mask.csv", truth.shape)
        written = {k: v for line in (cell_dir / "metrics.txt").read_text().splitlines()
                   for k, v in parse_record(line).items()}
    except (OSError, ValueError) as exc:
        return [f"unreadable artifacts in {cell_dir.name}: {exc}"], {}
    if imputed.shape != truth.shape:
        return [f"imputed.csv has shape {imputed.shape}, expected {truth.shape}"], {}

    observed = base & ~hidden
    if not np.array_equal(imputed[observed].view(np.int64), truth[observed].view(np.int64)):
        problems.append("(a) observed cells differ from the input")
    if not np.all(np.isfinite(imputed)):
        problems.append("(b) non-finite cells in imputed.csv")

    problems += check_mask(hidden, base, pattern)
    if not hidden.any():
        return problems + ["(d) eval mask is empty"], {}
    rmse, mape = scores(truth, imputed, hidden)
    for name, value in (("rmse", rmse), ("mape", mape)):
        for source, figure in (("printed", reported.get(name)), ("written", written.get(name))):
            if figure is None or not _close(value, float(figure)):
                problems.append(f"(c) {source} {name} {figure} != recomputed {value!r}")

    derived = {"rmse": rmse, "mape": mape,
               "converged": written.get("converged") == "true",
               "iterations": int(written.get("iterations", 0)),
               "ha_rmse": historical_average_rmse(truth, observed, hidden, periods)}
    return problems, derived


def check_quality(derived: dict) -> list[str]:
    """(e): the run converged and beats the historical-average fill."""
    problems = []
    if not derived["converged"]:
        problems.append("(e) run did not converge")
    if not derived["rmse"] < derived["ha_rmse"]:
        problems.append(f"(e) rmse {derived['rmse']:.4f} not below historical "
                        f"average {derived['ha_rmse']:.4f}")
    return problems
