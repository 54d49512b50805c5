"""Command line interface.

Three subcommands: ``impute`` runs one masking + imputation experiment,
``sweep`` runs a grid of (c, r) cells, and ``eval`` scores an imputed
matrix against a reference under a 0/1 mask file, on the cells the
reference holds a value for.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .bench import DataError, MaskSpec
from .solver import DEFAULT_LAGS, SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    """Argparse subclass that raises ``ValueError`` instead of calling sys.exit."""

    def error(self, message):
        raise ValueError(message)


def parse_lags(text: str) -> tuple[int, ...]:
    """Parse ``"1..6"`` or ``"1,2,3"`` into a lag tuple."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lags = tuple(range(int(lo), int(hi) + 1))
        else:
            lags = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse lags {text!r}: {exc}") from exc
    if not lags:
        raise ValueError(f"lag list {text!r} is empty")
    return lags


def _parse_list(text: str, kind, what: str):
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} list {text!r}: {exc}") from exc
    if not values:
        raise ValueError(f"{what} list {text!r} is empty")
    return values


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input matrix (.csv or .npy)")
    parser.add_argument("--pattern", choices=bench.PATTERNS, default="rm",
                        help="masking pattern (default rm)")
    parser.add_argument("--rate", type=float, default=0.3,
                        help="fraction of entries to hide (default 0.3)")
    parser.add_argument("--window", type=int, default=6,
                        help="blackout window length for bm (default 6)")
    parser.add_argument("--model", choices=bench.MODELS, default="latc",
                        help="imputation model (default latc)")
    parser.add_argument("--rho", type=float, default=1e-4,
                        help="initial ADMM penalty (default 1e-4)")
    parser.add_argument("--lags", default="1..6",
                        help="lag set, '1..6' or '1,2,3' (default 1..6)")
    parser.add_argument("--I", type=int, required=True, dest="periods",
                        help="time steps per day")
    parser.add_argument("--J", type=int, default=None, dest="blocks",
                        help="number of days (default: columns / I)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for masking and solver init (default 0)")
    parser.add_argument("--out", default=None, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="latc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_impute = sub.add_parser("impute", help="run one imputation experiment")
    _add_common_options(p_impute)
    p_impute.add_argument("--c", type=float, default=1.0,
                          help="AR weight relative to rho (default 1)")
    p_impute.add_argument("--r", type=int, default=10,
                          help="nuclear norm truncation (default 10)")
    p_impute.set_defaults(func=_cmd_impute)

    p_sweep = sub.add_parser("sweep", help="run a (c, r) parameter grid")
    _add_common_options(p_sweep)
    p_sweep.add_argument("--c", required=True, dest="c_list",
                         help="comma-separated c values")
    p_sweep.add_argument("--r", required=True, dest="r_list",
                         help="comma-separated r values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_eval = sub.add_parser("eval", help="score an imputed matrix")
    p_eval.add_argument("--truth", required=True, help="reference matrix")
    p_eval.add_argument("--imputed", required=True, help="imputed matrix")
    p_eval.add_argument("--mask", required=True,
                        help="0/1 CSV mask; 1 marks cells to score")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def _resolve_dims(args, values: np.ndarray) -> tuple[int, int, int]:
    m, t = values.shape
    periods = args.periods
    if periods <= 0:
        raise ValueError(f"--I must be positive, got {periods}")
    if args.blocks is None:
        if t % periods != 0:
            raise DataError(
                f"{t} columns do not divide into days of {periods} steps"
            )
        blocks = t // periods
    else:
        blocks = args.blocks
    if periods * blocks != t:
        raise DataError(
            f"I * J = {periods * blocks} does not match the {t} data columns"
        )
    return m, periods, blocks


def _build_config(args, dims, c: float, r: int) -> SolverConfig:
    return SolverConfig(
        dims=dims,
        rho0=args.rho,
        c=c,
        r=r,
        lags=parse_lags(args.lags),
        seed=args.seed,
    )


def _mask_spec(args) -> MaskSpec:
    return MaskSpec(
        pattern=args.pattern, rate=args.rate, window=args.window, seed=args.seed
    )


def _print_report(report: bench.EvalReport) -> None:
    for item in bench._fields_record(report):
        print(bench._format_record([item]))


def _cmd_impute(args) -> int:
    values, base_mask = bench.load_matrix(args.data)
    cfg = _build_config(args, _resolve_dims(args, values), args.c, args.r)
    report = bench._run_loaded(
        values, base_mask, _mask_spec(args), cfg, args.model, args.out
    )
    _print_report(report)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.out is None:
        raise ValueError("sweep requires --out for the grid artifacts")
    values, base_mask = bench.load_matrix(args.data)
    dims = _resolve_dims(args, values)
    c_values = _parse_list(args.c_list, float, "c")
    r_values = _parse_list(args.r_list, int, "r")
    cfg = _build_config(args, dims, c_values[0], r_values[0])
    records = bench._sweep_loaded(
        values, base_mask, _mask_spec(args), cfg, args.model, c_values, r_values,
        args.out,
    )
    for record in records:
        print(bench._format_record(bench._cell_record(*record)))
    return EXIT_OK


def _cmd_eval(args) -> int:
    truth, known = bench.load_matrix(args.truth)
    imputed, filled = bench.load_matrix(args.imputed)
    mask = bench.load_mask(args.mask)
    try:
        # Checked before the masks are combined, so they cannot broadcast.
        bench._check_eval_shapes(truth, imputed, mask)
        # A hole in the truth has no value to score against.
        scored = mask & known
        report = bench.evaluate(truth, imputed, scored)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    holes = np.argwhere(scored & ~filled)
    if len(holes):
        row, col = holes[0] + 1
        raise DataError(f"{args.imputed}: scored cell at row {row}, column {col} is empty")
    _print_report(report)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help exits through argparse
        return int(exc.code or 0)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
