"""Outside-in layer trace of one homogmem CLI run.

The program's layers call each other through module attributes
(``solvers.solve_spd``, ``macro.step``, ...), so replacing those attributes
with timing wrappers records a span at every layer boundary without editing
the program.  Run as a script, this module installs the wrappers, runs the
CLI and writes the spans as JSON:

    python3 bench/layertrace.py SPANS.json pipeline --config cfg.json --out DIR

A wrapped name the program no longer has is listed under ``absent`` instead
of failing the run.  ``layer_metrics`` turns the spans into the per-layer
metrics; a layer's self time is its span's duration minus its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

import numpy as np

WRAPPED = (
    ("mesh", "build_cell_mesh"),
    ("mesh", "build_inclusion_mesh"),
    ("mesh", "build_unit_square_mesh"),
    ("mesh", "submesh"),
    ("fem", "assemble_stiffness"),
    ("fem", "assemble_mass"),
    ("fem", "assemble_corrector_rhs"),
    ("fem", "integral_weights"),
    ("fem", "apply_constraints"),
    ("solvers", "solve_spd"),
    ("solvers", "smallest_eigenpairs"),
    ("cell", "solve_correctors"),
    ("cell", "effective_tensor"),
    ("kernel", "build_kernel"),
    ("kernel", "filter_kernel"),
    ("macro", "run"),
    ("macro", "init_state"),
    ("macro", "step"),
    ("macro", "energy"),
    ("macro", "l2_norm"),
    ("output", "write_vtk"),
    ("output", "write_snapshot_csv"),
    ("output", "write_series_csv"),
    ("cli", "cmd_tensor"),
    ("cli", "cmd_kernel"),
    ("cli", "cmd_solve"),
)
# Time spent computing a span's counts (residuals, file sizes) after the call
# returns; it is subtracted from the parent's self time like a child span.
BOOKKEEPING = "trace.bookkeeping"
CLI_SPANS = ("cli.main", "cli.cmd_tensor", "cli.cmd_kernel", "cli.cmd_solve")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _vertices(args: inspect.BoundArguments, mesh) -> dict:
    return {"vertices": int(mesh.n_vertices)}


def _solve(args: inspect.BoundArguments, x) -> dict:
    a, b = args.args[:2]
    bnorm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(b - a @ x)) / bnorm if bnorm else 0.0
    return {"saddle": bool(args.arguments.get("saddle", False)),
            "residual": resid}


def _bytes(args: inspect.BoundArguments, result) -> dict:
    return {"bytes": os.path.getsize(args.arguments["path"])}


# Sizes, residuals and byte counts taken from a call's arguments and result.
COUNTS = {
    "mesh.build_cell_mesh": _vertices,
    "mesh.build_inclusion_mesh": _vertices,
    "mesh.build_unit_square_mesh": _vertices,
    "solvers.solve_spd": _solve,
    "solvers.smallest_eigenpairs": lambda args, pairs: {
        "pairs": int(pairs.count), "max_residual": float(np.max(pairs.residuals))},
    "kernel.build_kernel": lambda args, ker: {"raw": int(ker.raw_count)},
    "kernel.filter_kernel": lambda args, ker: {"kept": int(ker.kept_count)},
    "macro.init_state": lambda args, state: {
        "dofs": int(state.y.shape[0]), "aux": int(state.w.shape[0])},
    "output.write_vtk": _bytes,
    "output.write_snapshot_csv": _bytes,
    "output.write_series_csv": _bytes,
}


class Recorder:
    """Spans kept in memory: id, parent id, name, start, end and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self.stack[-1] if self.stack else None,
                  "rss_kb": _maxrss_kb(), "start": time.perf_counter()}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_kb"] = _maxrss_kb() - record["rss_kb"]
            self.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span(BOOKKEEPING):
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        record.update(count(bound, result))
                    except (AttributeError, KeyError, TypeError, ValueError,
                            OSError):
                        pass  # counts are optional; a changed signature loses them
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr in WRAPPED:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"homogmem.{module_name}")
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


SELF_TIME_METRICS = {
    "mesh.build_cell_mesh_s": ("mesh.build_cell_mesh",),
    "mesh.submesh_s": ("mesh.submesh",),
    "mesh.build_inclusion_mesh_s": ("mesh.build_inclusion_mesh",),
    "fem.assemble_s": ("fem.assemble_stiffness", "fem.assemble_mass",
                       "fem.assemble_corrector_rhs", "fem.integral_weights"),
    "fem.apply_constraints_s": ("fem.apply_constraints",),
    "solvers.eigen_s": ("solvers.smallest_eigenpairs",),
    "cell.solve_correctors_s": ("cell.solve_correctors",),
    "cell.effective_tensor_s": ("cell.effective_tensor",),
    "kernel.build_kernel_self_s": ("kernel.build_kernel",),
    "macro.init_state_s": ("macro.init_state",),
    "macro.step_self_s": ("macro.step",),
    "macro.energy_s": ("macro.energy",),
    "macro.l2_norm_s": ("macro.l2_norm",),
    "output.write_s": ("output.write_vtk", "output.write_snapshot_csv",
                       "output.write_series_csv"),
    "cli.self_s": CLI_SPANS,
}


def layer_metrics(spans: list[dict],
                  stage_walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``stage_walls`` are the stage wall times the run wrote to meta.json;
    ``trace.coverage`` is the share of their sum that falls inside the
    outermost wrapped layer spans below the CLI.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(values):
        return float(sum(values))

    def last(name, key):
        found = [s[key] for s in named(name) if key in s]
        return float(found[-1]) if found else 0.0

    metrics = {key: total(own[s["id"]] for s in named(*names))
               for key, names in SELF_TIME_METRICS.items()}

    solves = named("solvers.solve_spd")
    spd = [s for s in solves if not s.get("saddle", False)]
    saddle = [s for s in solves if s.get("saddle", False)]
    eigen = named("solvers.smallest_eigenpairs")
    raw = last("kernel.build_kernel", "raw")
    kept = last("kernel.filter_kernel", "kept")
    metrics.update({
        "mesh.build_cell_mesh_rss_mb": max(
            (s["rss_kb"] / 1024.0 for s in named("mesh.build_cell_mesh")),
            default=0.0),
        "mesh.cell_vertices": last("mesh.build_cell_mesh", "vertices"),
        "mesh.inclusion_vertices": last("mesh.build_inclusion_mesh", "vertices"),
        "mesh.macro_vertices": last("mesh.build_unit_square_mesh", "vertices"),
        "solvers.solve_spd_s": total(own[s["id"]] for s in spd),
        "solvers.solve_spd_calls": float(len(spd)),
        "solvers.solve_saddle_s": total(own[s["id"]] for s in saddle),
        "solvers.solve_saddle_calls": float(len(saddle)),
        "solvers.solve_max_rel_residual": max(
            (s["residual"] for s in solves if "residual" in s), default=0.0),
        "solvers.eigen_pairs": total(s.get("pairs", 0) for s in eigen),
        "solvers.eigen_max_residual": max(
            (s["max_residual"] for s in eigen if "max_residual" in s),
            default=0.0),
        "kernel.raw_terms": raw,
        "kernel.kept_terms": kept,
        "kernel.kept_ratio": kept / raw if raw else 0.0,
        "macro.step_calls": float(len(named("macro.step"))),
        "macro.dofs": last("macro.init_state", "dofs"),
        "macro.aux_fields": last("macro.init_state", "aux"),
        "output.bytes": total(s.get("bytes", 0) for s in named(
            "output.write_vtk", "output.write_snapshot_csv",
            "output.write_series_csv")),
    })

    names = {s["id"]: s["name"] for s in spans}
    outermost = [s for s in spans
                 if s["name"] not in CLI_SPANS and s["name"] != BOOKKEEPING
                 and (s["parent"] is None or names[s["parent"]] in CLI_SPANS)]
    covered = total(s["end"] - s["start"] for s in outermost)
    walls = sum(stage_walls.values())
    metrics["trace.coverage"] = covered / walls if walls else 0.0
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from homogmem import cli

    try:
        with recorder.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": recorder.spans, "absent": recorder.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
