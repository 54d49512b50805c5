"""Spans around the public functions of ``latc`` and the layer metrics they give.

:class:`Tracer` wraps every public function of the modules in
``MODULES`` and rebinds the wrapper in every ``latc`` namespace that
binds the original, because ``solver``, ``bench`` and the package
import names with ``from .x import y``.  Spans (name, start, end,
parent, extra) are kept in memory and written once, at the end of the
traced process.  :func:`layer_metrics` turns them into the benchmark's
per-layer metrics; a metric whose functions no longer exist is reported
as absent, not as a failure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("tensors", "lowrank", "autoreg", "solver", "bench", "cli")
SOLVER_ENTRIES = ("solver.impute", "solver.impute_lamc", "solver.lrtc_tnn_mode")


def _load_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _svt_shape(args, kwargs, result):
    matrix = args[0] if args else kwargs.get("matrix")
    return {"rows": int(matrix.shape[0])}


def _solver_run(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"iterations": int(result.iterations), "converged": bool(result.converged),
            "inner_iters": int(cfg.inner_iters), "dims": [int(d) for d in cfg.dims]}


# Extra facts taken from a call once it returns.
HOOKS = {
    "bench.load_matrix": _load_bytes,
    "lowrank.svt": _svt_shape,
    **{name: _solver_run for name in SOLVER_ENTRIES},
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, func):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span[4] = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a later signature: the fact goes missing, the call stands
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of ``MODULES`` wherever latc binds them."""
        package = importlib.import_module("latc")
        modules = []
        for short in MODULES:
            try:
                modules.append((short, importlib.import_module(f"latc.{short}")))
            except ModuleNotFoundError:
                continue
        namespaces = [package] + [module for _, module in modules]
        for short, module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for namespace in namespaces:
                    if vars(namespace).get(attr) is obj:
                        setattr(namespace, attr, wrapper)
                self.wrapped.append(f"{short}.{attr}")

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"wrapped": self.wrapped, "spans": self.spans}, fh)


# name -> (unit, functions of which at least one must exist)
LAYER_METRICS = {
    "lowrank.svt_s": ("s", ["lowrank.svt"]),
    "lowrank.svt_calls": ("count", ["lowrank.svt"]),
    "lowrank.svt_mode1_s": ("s", ["lowrank.svt"]),
    "lowrank.svt_mode2_s": ("s", ["lowrank.svt"]),
    "lowrank.svt_mode3_s": ("s", ["lowrank.svt"]),
    "lowrank.svt_matrix_s": ("s", ["lowrank.svt"]),
    "lowrank.tnn_s": ("s", ["lowrank.tensor_tnn", "lowrank.truncated_nuclear_norm"]),
    "lowrank.tnn_calls": ("count", ["lowrank.tensor_tnn", "lowrank.truncated_nuclear_norm"]),
    "tensors.unfold_s": ("s", ["tensors.unfold"]),
    "tensors.unfold_calls": ("count", ["tensors.unfold"]),
    "tensors.fold_s": ("s", ["tensors.fold"]),
    "tensors.fold_calls": ("count", ["tensors.fold"]),
    "autoreg.solve_z_s": ("s", ["autoreg.solve_z_matrix"]),
    "autoreg.solve_z_calls": ("count", ["autoreg.solve_z_matrix"]),
    "autoreg.series_solves": ("count", ["autoreg.solve_z_series"]),
    "autoreg.refit_s": ("s", ["autoreg.update_coefficients"]),
    "autoreg.refit_calls": ("count", ["autoreg.update_coefficients"]),
    "autoreg.tv_s": ("s", ["autoreg.temporal_variation"]),
    "solver.impute_s": ("s", list(SOLVER_ENTRIES)),
    "solver.self_s": ("s", list(SOLVER_ENTRIES)),
    "solver.outer_iters": ("count", list(SOLVER_ENTRIES)),
    "solver.inner_steps": ("count", list(SOLVER_ENTRIES)),
    "solver.converged_runs": ("count", list(SOLVER_ENTRIES)),
    "bench.load_s": ("s", ["bench.load_matrix"]),
    "bench.load_calls": ("count", ["bench.load_matrix"]),
    "bench.load_bytes": ("B", ["bench.load_matrix"]),
    "bench.save_s": ("s", ["bench.save_matrix", "bench.save_mask"]),
    "bench.mask_s": ("s", ["bench.generate_mask"]),
    "bench.eval_s": ("s", ["bench.evaluate"]),
    "cli.self_s": ("s", ["cli.main"]),
}


def layer_metrics(wrapped: list[str], spans: list[list]) -> tuple[dict, list[str]]:
    """Per-layer values from one traced process, and the absent metric names.

    Times of a family of functions count only the outermost call, so a
    function calling its own family is not counted twice.  A module's
    self time is the time its spans spend outside any child span.
    """
    present = set(wrapped)
    names = [span[0] for span in spans]
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start

    def ancestors(index):
        parent = spans[index][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    def outermost(family):
        return [i for i, name in enumerate(names)
                if name in family and not any(names[a] in family for a in ancestors(i))]

    def seconds(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def self_time(prefix):
        return sum(end - start - children[i] for i, (name, start, end, _, _)
                   in enumerate(spans) if name.startswith(prefix))

    svt_modes = {"lowrank.svt_mode1_s": 0.0, "lowrank.svt_mode2_s": 0.0,
                 "lowrank.svt_mode3_s": 0.0, "lowrank.svt_matrix_s": 0.0}
    svts = outermost({"lowrank.svt"})
    for i in svts:
        entry = next((a for a in ancestors(i) if names[a] in SOLVER_ENTRIES), None)
        key = "lowrank.svt_matrix_s"
        if entry is not None and names[entry] != "solver.impute_lamc" and spans[entry][4]:
            dims = spans[entry][4]["dims"]
            rows = (spans[i][4] or {}).get("rows")
            if rows in dims:
                key = f"lowrank.svt_mode{dims.index(rows) + 1}_s"
        svt_modes[key] += spans[i][2] - spans[i][1]

    runs = [spans[i][4] for i in outermost(set(SOLVER_ENTRIES)) if spans[i][4]]
    tnn = outermost({"lowrank.tensor_tnn", "lowrank.truncated_nuclear_norm"})
    loads = outermost({"bench.load_matrix"})
    values = {
        "lowrank.svt_s": seconds(svts),
        "lowrank.svt_calls": len(svts),
        **svt_modes,
        "lowrank.tnn_s": seconds(tnn),
        "lowrank.tnn_calls": len(tnn),
        "tensors.unfold_s": seconds(outermost({"tensors.unfold"})),
        "tensors.unfold_calls": names.count("tensors.unfold"),
        "tensors.fold_s": seconds(outermost({"tensors.fold"})),
        "tensors.fold_calls": names.count("tensors.fold"),
        "autoreg.solve_z_s": seconds(outermost({"autoreg.solve_z_matrix"})),
        "autoreg.solve_z_calls": names.count("autoreg.solve_z_matrix"),
        "autoreg.series_solves": names.count("autoreg.solve_z_series"),
        "autoreg.refit_s": seconds(outermost({"autoreg.update_coefficients"})),
        "autoreg.refit_calls": names.count("autoreg.update_coefficients"),
        "autoreg.tv_s": seconds(outermost({"autoreg.temporal_variation"})),
        "solver.impute_s": seconds(outermost(set(SOLVER_ENTRIES))),
        "solver.self_s": self_time("solver."),
        "solver.outer_iters": sum(run["iterations"] for run in runs),
        "solver.inner_steps": sum(run["iterations"] * run["inner_iters"] for run in runs),
        "solver.converged_runs": sum(run["converged"] for run in runs),
        "bench.load_s": seconds(loads),
        "bench.load_calls": len(loads),
        "bench.load_bytes": sum(spans[i][4]["bytes"] for i in loads if spans[i][4]),
        "bench.save_s": seconds(outermost({"bench.save_matrix", "bench.save_mask"})),
        "bench.mask_s": seconds(outermost({"bench.generate_mask"})),
        "bench.eval_s": seconds(outermost({"bench.evaluate"})),
        "cli.self_s": self_time("cli."),
    }
    absent = [name for name, (_, needs) in LAYER_METRICS.items()
              if not present.intersection(needs)]
    for name in absent:
        values[name] = 0
    return values, absent
