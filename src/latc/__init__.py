"""Low-rank autoregressive tensor completion for time series imputation.

The package completes missing entries of an ``(M, T)`` multivariate
time series matrix by rearranging it into a (sensor, time-of-day, day)
tensor, penalizing the truncated nuclear norm of its unfoldings, and
coupling the result to per-sensor autoregressive models through an
ADMM scheme.  :mod:`latc.bench` adds masking patterns, metrics and an
experiment harness; ``latc`` is also a command line tool.
"""

from .autoreg import (
    LagStructure,
    ar_residual,
    build_lag_structure,
    factor_z_matrix,
    solve_z_matrix,
    temporal_variation,
    update_coefficients,
)
from .bench import (
    DataError,
    EvalReport,
    MaskSpec,
    evaluate,
    generate_mask,
    load_mask,
    load_matrix,
    run_experiment,
    run_sweep,
    save_mask,
    save_matrix,
)
from .lowrank import svt, tensor_tnn, truncated_nuclear_norm
from .solver import (
    ImputationResult,
    IterationRecord,
    SolverConfig,
    SolverState,
    impute,
    update_x,
)
from .tensors import (
    fold,
    frobenius_norm,
    project,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "LagStructure",
    "ar_residual",
    "build_lag_structure",
    "factor_z_matrix",
    "solve_z_matrix",
    "temporal_variation",
    "update_coefficients",
    "DataError",
    "EvalReport",
    "MaskSpec",
    "evaluate",
    "generate_mask",
    "load_mask",
    "load_matrix",
    "run_experiment",
    "run_sweep",
    "save_mask",
    "save_matrix",
    "svt",
    "tensor_tnn",
    "truncated_nuclear_norm",
    "ImputationResult",
    "IterationRecord",
    "SolverConfig",
    "SolverState",
    "impute",
    "update_x",
    "fold",
    "frobenius_norm",
    "project",
    "unfold",
]
