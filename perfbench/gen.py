"""Synthetic traffic-speed inputs for the benchmark workloads.

Each input is an ``(M, I * J)`` matrix (sensors x day-major time steps)
built from a per-sensor level, a few daily harmonics scaled by sensor
loadings and day factors, per-sensor AR(2) noise, and about 1 % of
scattered pre-existing NaN holes.  Values are speeds in km/h.  The same
seed always gives the same matrix, bit for bit.

Regenerate the inputs of one seed by hand with

    python3 perfbench/gen.py --seed 0

which writes them to the cache directory the benchmark reads.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import numpy as np

CACHE = Path(".perfbench") / "inputs"
# Bump when the recipe changes, so cached inputs are rebuilt.
RECIPE = 1
HOLE_RATE = 0.01
HARMONICS = (1, 2, 3)
HARMONIC_AMPLITUDE = (8.0, 4.0, 2.0)
LEVEL_RANGE = (65.0, 90.0)
SHOCK_SCALE = 1.0
NETWORK_SEED = 20210430

# name -> (sensors M, steps per day I, days J, file format, stream tag)
INPUTS = {
    "gz": (214, 144, 61, "npy", 1),
    "small": (50, 144, 14, "csv", 2),
    "sweep": (80, 108, 25, "csv", 3),
}


def synthesize(seed: int, m: int, i: int, j: int, tag: int) -> np.ndarray:
    """Truth matrix of shape ``(m, i * j)`` with NaN at the holes.

    The network itself (sensor levels, loadings, harmonic phases and
    AR(2) coefficients) comes from a fixed stream per input; ``seed``
    draws the day factors, the noise and the holes.  Each seed is then
    another stretch of days on the same network, so the solver's work
    and accuracy vary little from seed to seed.
    """
    network = np.random.default_rng([NETWORK_SEED, tag])
    rng = np.random.default_rng([seed, tag])
    t = i * j
    level = network.uniform(*LEVEL_RANGE, size=(m, 1))
    phase = 2.0 * np.pi * np.arange(i) / i
    signal = np.zeros((m, i, j))
    for k, amp in zip(HARMONICS, HARMONIC_AMPLITUDE):
        loading = network.normal(0.0, 1.0, size=m)
        shape = np.cos(k * phase + network.uniform(0.0, 2.0 * np.pi))
        day = 1.0 + 0.15 * rng.normal(0.0, 1.0, size=j)
        signal += amp * loading[:, None, None] * shape[None, :, None] * day[None, None, :]
    # day-major columns: column d * i + s is day d, step s
    values = level + signal.transpose(0, 2, 1).reshape(m, t)

    phi1 = network.uniform(0.5, 0.8, size=m)
    phi2 = network.uniform(-0.3, 0.1, size=m)
    shocks = rng.normal(0.0, SHOCK_SCALE, size=(m, t))
    noise = np.zeros((m, t))
    for s in range(t):
        prev1 = noise[:, s - 1] if s >= 1 else 0.0
        prev2 = noise[:, s - 2] if s >= 2 else 0.0
        noise[:, s] = phi1 * prev1 + phi2 * prev2 + shocks[:, s]
    values = values + noise

    holes = rng.random((m, t)) < HOLE_RATE
    values[holes] = np.nan
    return values


def write_csv(path: Path, values: np.ndarray) -> None:
    """Shortest round-trip decimals, so a reader gets the same floats back."""
    lines = [
        ",".join("" if np.isnan(v) else repr(float(v)) for v in row) for row in values
    ]
    path.write_text("\n".join(lines) + "\n")


def ensure_inputs(cache: Path, name: str, seed: int) -> dict:
    """Make sure ``cache/name`` holds the input of ``seed``; return its facts.

    The cache keeps one seed per input, so its size stays bounded
    whatever seeds the benchmark is run with.
    """
    m, i, j, fmt, tag = INPUTS[name]
    folder = cache / name
    stamp = folder / "stamp.json"
    data = folder / f"data.{fmt}"
    truth = data if fmt == "npy" else folder / "truth.npy"
    facts = {"seed": seed, "recipe": RECIPE, "dims": [m, i, j], "format": fmt,
             "data": str(data), "truth": str(truth)}
    if stamp.is_file() and json.loads(stamp.read_text()) == facts:
        return facts
    if folder.exists():
        shutil.rmtree(folder)
    folder.mkdir(parents=True)
    values = synthesize(seed, m, i, j, tag)
    np.save(truth, values)
    if fmt == "csv":
        write_csv(data, values)
    stamp.write_text(json.dumps(facts))
    return facts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", default=str(CACHE))
    args = parser.parse_args()
    for name in INPUTS:
        facts = ensure_inputs(Path(args.cache), name, args.seed)
        print(json.dumps({"input": name, **facts}))


if __name__ == "__main__":
    main()
