"""One timed imputation run in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<spec json>'`` from the repository
root, with ``src`` on ``PYTHONPATH``.  The process imports ``latc``,
prints ``ready`` (the parent times set-up up to that line), runs the
call the spec names, and prints one ``RESULT <json>`` line with its wall
time, its peak resident memory and what the program printed or
returned.  With a ``trace`` path in the spec, the public functions of
``latc`` are wrapped first and the spans are written to that path once
the call has returned.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import latc
import latc.cli

def main() -> None:
    spec = json.loads(sys.argv[1])
    if not Path(latc.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        sys.exit(f"latc imported from {latc.__file__}, not from {spec['src']}")
    print("ready", flush=True)

    tracer = None
    if spec["trace"]:
        from spans import Tracer  # this script's directory leads sys.path

        tracer = Tracer()
        tracer.install()

    outcome = {}
    captured = io.StringIO()
    start = time.perf_counter()
    if spec["call"] == "run_experiment":
        args = spec["args"]
        report = latc.run_experiment(
            args["data"],
            latc.MaskSpec(args["pattern"], rate=args["rate"], window=args["window"],
                          seed=args["seed"]),
            latc.SolverConfig(dims=tuple(args["dims"]), c=args["c"], r=args["r"],
                              lags=tuple(args["lags"]), max_outer_iters=args["max_outer_iters"],
                              seed=args["seed"]),
            model=args["model"],
            out_dir=args["out"],
        )
        outcome = {"rmse": report.rmse, "mape": report.mape}
    else:
        with contextlib.redirect_stdout(captured):
            outcome["exit_code"] = latc.cli.main(spec["argv"])
    run_s = time.perf_counter() - start

    if tracer is not None:
        tracer.dump(spec["trace"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outcome.update(run_s=run_s, peak_rss_mb=peak_kib / 1024.0, stdout=captured.getvalue())
    print("RESULT " + json.dumps(outcome), flush=True)


if __name__ == "__main__":
    main()
