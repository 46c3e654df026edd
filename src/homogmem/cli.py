"""Command line pipeline: tensor -> kernel -> solve.

Each stage reads one JSON config, writes JSON/CSV/VTK artifacts into the
output directory, and isolates timestamps and wall times in meta.json so
payload files stay byte-comparable between identical runs.  Exit codes:
0 success, 2 usage or config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import ast
import copy
import datetime
import json
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import (__version__, cell as cell_mod, kernel as kernel_mod, macro,
               mesh as msh, output)
from .errors import ConvergenceError, HomogError

DEFAULT_CONFIG: dict = {
    "cell": {"a": 0.4, "b": 0.2, "angle_deg": 30.0, "d1": 1.0, "d2": 1.0},
    "mesh": {
        "mode": "builtin",
        "h": 0.02,
        "n_arc": 256,
        "msh_path": None,
        "subdomain_tags": None,
    },
    "kernel": {
        "m": 100,
        "epsilon": 1e-5,
        "fold_rho": False,
        "mesh": {"mode": "inclusion", "h": 0.00625, "n_arc": 384},
    },
    "macro": {
        "n": 100,
        "tau": 1e-4,
        "sigma": 1.0,
        "t_end": 0.1,
        "snapshot_times": [0.0, 0.05, 0.1],
        "u0": "paper",
        "tensor_path": None,
        "kernel_path": None,
    },
    "output": {"directory": "out", "formats": ["vtk", "csv"], "write_correctors": False},
}
# The types of the leaves whose default does not name their type; every other
# leaf takes the type of its default (list elements that of its first element).
_LEAF_TYPES = {
    "mesh.msh_path": (str, type(None)),
    "macro.tensor_path": (str, type(None)),
    "macro.kernel_path": (str, type(None)),
    "mesh.subdomain_tags": (dict, type(None)),
    "macro.u0": (str, dict),
}
# The leaves (or list elements) that must be one of a few names.
_NAMES = {
    "mesh.mode": ("builtin", "msh"),
    "kernel.mesh.mode": ("inclusion", "cell"),
    "output.formats": ("vtk", "csv"),
}


def _parse_set(expr: str) -> dict:
    """The nested one-key config document of a ``--set key=value``."""
    if "=" not in expr:
        raise ValueError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.strip().split(".")):
        value = {part: value}
    return value


def _merge(config, value, default=DEFAULT_CONFIG, where: str = ""):
    """``config`` with ``value`` laid over it, checked against ``default``.
    Every key must exist in ``default`` at its depth and every leaf must have
    the type of its default (list elements that of the default's first
    element) or one that ``_LEAF_TYPES`` names; an int becomes a float where
    the default is a float.  Anything else is a ValueError."""
    if type(default) is dict:
        if type(value) is not dict:
            raise ValueError(f"config {where or 'root'} must be a JSON object")
        merged = dict(config)
        for key, item in value.items():
            path = f"{where}.{key}" if where else key
            if key not in default:
                raise ValueError(f"unknown config key {path!r}")
            merged[key] = _merge(config[key], item, default[key], path)
        return merged
    if type(default) is list and type(value) is list:
        return [_merge(None, item, default[0], where) for item in value]
    accepted = _LEAF_TYPES.get(where) or (
        (int, float) if type(default) is float else (type(default),))
    huge = type(value) is int and abs(value) > sys.float_info.max  # no float holds it
    if type(value) not in accepted or huge:
        raise ValueError(f"config {where} does not accept {json.dumps(value)}")
    names = _NAMES.get(where)
    if names and value not in names:
        raise ValueError(f"config {where} must be one of {names}, got {value!r}")
    return float(value) if type(default) is float else value


def load_config(path, overrides=()) -> dict:
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config is not valid JSON: {err}") from err
    config = copy.deepcopy(DEFAULT_CONFIG)
    for override in [user, *map(_parse_set, overrides)]:
        config = _merge(config, override)
    return config


_U0_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh", "cosh",
                "sinh", "where", "minimum", "maximum")
_U0_CONSTANTS = ("pi", "e")
_U0_NODES = (
    ast.Expression, ast.Name, ast.Load, ast.Constant, ast.Call, ast.BinOp,
    ast.UnaryOp, ast.Compare, ast.operator, ast.unaryop, ast.cmpop,
)


def _compile_u0(expr: str):
    """Compile a u0 expression made only of arithmetic, comparisons, numeric
    constants, ``x1``/``x2``, ``pi``/``e`` and calls of the listed numpy
    functions; anything else (attributes, subscripts, other names) is a
    ValueError.  Integer constants become floats, so that constant powers
    overflow at once instead of growing without bound."""
    try:
        tree = ast.parse(expr, "<u0-expression>", mode="eval")
    except (SyntaxError, TypeError) as err:
        raise ValueError(f"u0 expression is not valid: {err}") from None
    allowed = ("x1", "x2") + _U0_CONSTANTS + _U0_FUNCTIONS
    for node in ast.walk(tree):
        if not isinstance(node, _U0_NODES):
            raise ValueError(f"u0 expression may not contain {type(node).__name__}")
        if isinstance(node, ast.Name) and node.id not in allowed:
            raise ValueError(f"u0 expression may not use the name {node.id!r}")
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and node.func.id in _U0_FUNCTIONS
            and not node.keywords
        ):
            raise ValueError("u0 expression may only call the listed functions")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ValueError(f"u0 constant {node.value!r} is not a real number")
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ValueError(f"u0 constant {node.value} is too large") from None
    return compile(tree, "<u0-expression>", "eval")


_U0_PRESETS = {
    "paper": "4.0/(1.0+exp(-100.0*(x1-0.5)))*x1*(1.0-x1)*sin(pi*x2)",
    "zero": "0",
}


def _resolve_u0(selector):
    """u0 of a preset name or of ``{"expression": ...}``."""
    if isinstance(selector, dict):
        expr = selector.get("expression")
    else:
        expr = _U0_PRESETS.get(selector)
    if expr is None:
        raise ValueError(f"unsupported u0 selector {selector!r}")
    code = _compile_u0(expr)
    names = {k: getattr(np, k) for k in _U0_FUNCTIONS + _U0_CONSTANTS}

    def u0(x1, x2):
        try:  # a TypeError also where the value is not a number, say a function
            value = np.asarray(eval(code, {"__builtins__": {}},
                                    {**names, "x1": x1, "x2": x2}), dtype=float)
        except (ArithmeticError, TypeError) as err:
            raise ValueError(f"u0 expression failed: {err}") from None
        return np.broadcast_to(value, np.asarray(x1).shape).copy()

    return u0


def _snapshot_stem(t: float, tau: float) -> str:
    """File stem of the snapshot at time t: its time level, zero-padded."""
    return f"snapshot_{int(round(t / tau)):06d}"


def _would_write(stage: str, config: dict) -> list[str]:
    """Artifact names that ``stage`` writes into the output directory."""
    if stage == "tensor":
        files = ["tensor.json"]
        if config["output"]["write_correctors"]:
            files += ["corrector_1.csv", "corrector_2.csv"]
        return files
    if stage == "kernel":
        return ["kernel.json", "kernel_samples.csv"]
    files = ["summary.json", "energy.csv"]
    for t_req in config["macro"]["snapshot_times"]:
        stem = _snapshot_stem(t_req, config["macro"]["tau"])
        files += [f"{stem}.{ext}" for ext in config["output"]["formats"]]
    return files


# Every mesh's matrices are factored by SuperLU, which indexes the nonzeros
# of its L and U factors with C ints.  On the P1 matrices of the unit-square
# grid its factor holds 43, 58, 79 and 105 nonzeros per vertex at 2.6e3,
# 1.0e4, 4.0e4 and 1.6e5 vertices, about 10 more per doubling, which reaches
# 2**31 nonzeros near 1.2e7 vertices; so a mesh estimated above this bound
# cannot be solved (nor held in memory: 12 bytes per factor nonzero), and
# the run exits before any stage writes
_MAX_VERTICES = 10**7


@dataclass(frozen=True, eq=False)
class Plan:
    """One run's config and stages, and the objects its stages share, each
    built when first read (by the gate or by its stage) and then kept."""

    config: dict
    stages: tuple[str, ...]

    @cached_property
    def geometry(self) -> msh.CellGeometry:
        return msh.CellGeometry(**self.config["cell"])

    @cached_property
    def u0(self):
        return _resolve_u0(self.config["macro"]["u0"])

    @cached_property
    def cell_mesh(self) -> msh.TriMesh:
        mc = self.config["mesh"]
        if mc["mode"] == "builtin":
            return msh.build_cell_mesh(self.geometry, h=mc["h"], n_arc=mc["n_arc"])
        sub_map = {}
        for key, name in (mc["subdomain_tags"] or {}).items():
            try:
                sub_map[int(key)] = name
            except ValueError:
                raise ValueError(f"mesh.subdomain_tags key {key!r} is not an "
                                 "integer physical group") from None
        return msh.read_msh(mc["msh_path"], subdomain_map=sub_map or None)

    @cached_property
    def kernel_mesh(self) -> msh.TriMesh:
        """The quarter inclusion, or the cell mesh's Y2 submesh."""
        km = self.config["kernel"]["mesh"]
        if km["mode"] == "inclusion":
            return msh.build_inclusion_mesh(self.geometry, h=km["h"], n_arc=km["n_arc"])
        return msh.submesh(self.cell_mesh, msh.Y2)[0]

    @cached_property
    def macro_mesh(self) -> msh.TriMesh:
        return msh.build_unit_square_mesh(self.config["macro"]["n"])


def _check_vertices(settings: str, vertices, least: bool = False) -> None:
    """Refuse the mesh that ``settings`` make if its ``vertices`` (with
    ``least``, a lower bound of them) exceed the bound."""
    if vertices > _MAX_VERTICES:
        count = f"at least {vertices:g}" if least else vertices
        raise ValueError(f"{settings} gives more mesh vertices ({count}) than a "
                         f"sparse factor can index ({_MAX_VERTICES})")


def plan(config: dict, stages: list[str]) -> Plan:
    """The plan of running ``stages`` on ``config``.  Rejects, before any
    stage runs, the values that a stage would refuse only after earlier
    stages have written; most of these are the library's own checks."""
    planned = Plan(config, tuple(stages))
    if config["mesh"]["mode"] == "msh" and not config["mesh"]["msh_path"]:
        raise ValueError("mesh.mode 'msh' requires mesh.msh_path")
    if "tensor" in stages or "kernel" in stages:
        planned.geometry  # a valid CellGeometry
    cm, kc = config["mesh"], config["kernel"]
    km, a = kc["mesh"], config["cell"]["a"]
    # each mesh's size function checks its mesher's arguments; a count that would
    # overflow or take memory is refused first by a lower bound (0 where h <= 0)
    if cm["mode"] == "builtin" and (
            "tensor" in stages or "kernel" in stages and km["mode"] == "cell"):
        at = "at mesh.n_arc={n_arc}, mesh.h={h}".format(**cm)
        # the grid has 1/h squares per side, which the count rounds to an integer
        _check_vertices(at, cm["h"] > 0.0 and 1.0 / cm["h"], least=True)
        _check_vertices(at, msh.cell_mesh_vertices(cm["h"], cm["n_arc"]))
    if "kernel" in stages and km["mode"] == "inclusion":
        at = "at kernel.mesh.n_arc={n_arc}, kernel.mesh.h={h}".format(**km)
        # the whole inclusion's arc alone has n_arc vertices, and its four quarters,
        # each a centre and ceil(a/h) rings of two or more, at least 8 a/h + 4
        _check_vertices(at, max(km["n_arc"], km["h"] > 0.0 and 8 * a / km["h"] + 4),
                        least=True)
        _check_vertices(at, 4 * msh.inclusion_mesh_vertices(a, km["h"], km["n_arc"]))
    if "kernel" in stages:
        if kc["m"] < 0:
            raise ValueError(f"kernel.m must be >= 0, got {kc['m']}")
        if not kc["epsilon"] >= 0.0:
            raise ValueError(f"kernel.epsilon must be >= 0, got {kc['epsilon']}")
    if "solve" in stages:
        mac = config["macro"]
        planned.u0  # a u0 that compiles
        macro.check_time_grid(mac["tau"], mac["t_end"], mac["sigma"],
                              mac["snapshot_times"])
        if mac["n"] < 1:
            raise ValueError(f"macro.n must be >= 1, got {mac['n']}")
        _check_vertices(f"macro.n={mac['n']}", (mac["n"] + 1) ** 2)
    if "kernel" in stages:
        # the kernel mesh, sized above, is built here so that a geometry its
        # mesher refuses is refused before any stage writes; its dofs are counted on it
        dofs = kernel_mod.eigenproblem_dofs(planned.kernel_mesh)
        if kc["m"] > dofs:
            what = {"inclusion": "inclusion", "cell": "Y2"}[km["mode"]]
            raise ValueError(f"kernel.m={kc['m']} exceeds the {dofs} dofs of the "
                             f"{what} eigenproblem")
    if "solve" in stages:
        # u0 goes through the solve stage's own load, on its own mesh
        macro.initial_load(planned.macro_mesh, planned.u0)
    return planned


def _check_output_dir(outdir: Path, stages: list[str], config: dict,
                      force: bool) -> dict:
    """Refuse to overwrite artifacts without ``force``, and return the stage
    entries of an earlier meta.json to keep.  A meta.json that is not a JSON
    object whose ``stages`` is an object is a ValueError naming it, or with
    ``force`` is started afresh."""
    names = [n for stage in stages for n in _would_write(stage, config)]
    clashes = [n for n in names if (outdir / n).exists()]
    if clashes and not force:
        raise FileExistsError(
            f"output files exist in {outdir} (rerun with --force): {clashes[:4]}"
        )
    meta_path, kept = outdir / "meta.json", {}
    if meta_path.exists():
        try:
            with open(meta_path) as fh:
                kept = json.load(fh)["stages"]
        except (ValueError, TypeError, KeyError):  # not JSON, not an object, no stages
            kept = None
        if not isinstance(kept, dict) and not force:
            raise ValueError(f"{meta_path} is not a JSON object with a 'stages' "
                             "object (rerun with --force to start it afresh)")
    outdir.mkdir(parents=True, exist_ok=True)
    return kept if isinstance(kept, dict) else {}


def _update_meta(outdir: Path, stages: dict, stage: str, wall: float) -> None:
    """Record the stage in ``stages`` and write them to meta.json."""
    stages[stage] = {
        "wall_time_s": wall,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _dump_json({"tool": "homogmem", "version": __version__, "stages": stages},
               outdir / "meta.json")


def _dump_json(payload: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def cmd_tensor(plan: Plan, outdir: Path) -> None:
    geom, mesh = plan.geometry, plan.cell_mesh
    correctors = cell_mod.solve_correctors(mesh, geom)
    result = cell_mod.effective_tensor(correctors, geom)
    payload = {
        "d": result.tensor.tolist(),
        "asymmetry": result.asymmetry,
        "y1_measure": result.y1_measure,
        "y2_measure": mesh.subdomain_measure(msh.Y2),
        "multipliers": [c.multiplier for c in correctors.components],
        "residuals": [c.residual for c in correctors.components],
        "mesh": {"n_vertices": mesh.n_vertices, "n_triangles": mesh.n_triangles},
        "geometry": plan.config["cell"],
    }
    _dump_json(payload, outdir / "tensor.json")
    if plan.config["output"]["write_correctors"]:
        for comp in correctors.components:
            output.write_snapshot_csv(correctors.mesh, comp.theta,
                                      outdir / f"corrector_{comp.direction}.csv",
                                      name="theta")


def cmd_kernel(plan: Plan, outdir: Path) -> None:
    kc = plan.config["kernel"]
    raw = kernel_mod.build_kernel(plan.kernel_mesh, plan.geometry, kc["m"])
    filtered = kernel_mod.filter_kernel(raw, kc["epsilon"], fold=kc["fold_rho"])
    _dump_json(kernel_mod.kernel_to_json(filtered), outdir / "kernel.json")
    if filtered.rates.size:
        t_lo, t_hi = 1e-4 / filtered.rates.max(), 20.0 / filtered.rates.min()
        ts = np.concatenate([[0.0], np.geomspace(t_lo, t_hi, 200)])
    else:
        ts = np.linspace(0.0, 1.0, 201)
    output.write_series_csv(outdir / "kernel_samples.csv", {
        "t": ts, "chi": np.atleast_1d(kernel_mod.eval_kernel(filtered, ts))})


def _read_input(path: Path, what: str, parse):
    """``parse`` the JSON object in the ``what`` file at ``path``.  A missing
    file is a FileNotFoundError; a file that is not JSON, a payload that is
    not an object, lacks a key that ``parse`` reads or holds a value it
    refuses is a ValueError.  Each names the file."""
    if not path.exists():
        raise FileNotFoundError(f"{what} not found at {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            return parse(data)
    except KeyError as err:
        raise ValueError(f"{what} file {path} has no key {err}") from None
    except (OverflowError, TypeError, ValueError) as err:  # not JSON, or refused
        raise ValueError(f"{what} file {path}: {err}") from None
    raise ValueError(f"{what} file {path} does not hold a JSON object")


def _tensor_from_json(data: dict) -> np.ndarray:
    """``d`` of a tensor payload, a 2x2 list of finite JSON numbers."""
    d = np.array(data["d"], dtype=object)
    if d.shape != (2, 2) or not all(type(x) in (int, float) and np.isfinite(float(x))
                                    for x in d.flat):
        raise ValueError("d must be a 2x2 list of finite numbers")
    return d.astype(float)


def cmd_solve(plan: Plan, outdir: Path) -> None:
    mac = plan.config["macro"]
    tensor_path = Path(mac["tensor_path"] or outdir / "tensor.json")
    kernel_path = Path(mac["kernel_path"] or outdir / "kernel.json")
    tensor = _read_input(tensor_path, "tensor", _tensor_from_json)
    ker = _read_input(kernel_path, "kernel", kernel_mod.kernel_from_json)

    mesh = plan.macro_mesh
    problem = macro.MacroProblem(mesh=mesh, tensor=tensor, kernel=ker, u0=plan.u0,
                                 tau=mac["tau"], t_end=mac["t_end"], sigma=mac["sigma"])
    result = macro.run(problem, snapshot_times=mac["snapshot_times"])

    output.write_series_csv(outdir / "energy.csv", {
        "n": np.arange(result.times.size), "t": result.times,
        "energy": result.energies, "l2_norm": result.l2_norms})
    writers = {"vtk": output.write_vtk, "csv": output.write_snapshot_csv}
    for t_snap, field in result.snapshots:
        stem = _snapshot_stem(t_snap, problem.tau)
        for ext in plan.config["output"]["formats"]:
            writers[ext](mesh, field, outdir / f"{stem}.{ext}")

    summary = {
        "e0": result.initial_energy, "e_end": result.final_energy,
        "steps": problem.n_steps, "n_dofs": int(result.final.y.shape[0]),
        "sigma": problem.sigma, "tau": problem.tau, "t_end": problem.t_end,
        "energy_monotone": bool(np.all(
            np.diff(result.energies) <= 1e-12 * max(result.initial_energy, 1e-300))),
        "warnings": ([f"sigma={problem.sigma} < 1/2 is only conditionally stable"]
                     if problem.conditionally_stable else []),
    }
    _dump_json(summary, outdir / "summary.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homogmem",
        description="Three-stage homogenization pipeline for diffusion with memory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("tensor", "solve the periodic cell problems and write tensor.json"),
        ("kernel", "solve the inclusion eigenproblem and write kernel.json"),
        ("solve", "run the macroscale time stepping"),
        ("pipeline", "tensor, kernel, and solve in sequence"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing artifacts")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path config override, value parsed as JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created = []  # the output directory and its parents this run makes
    try:
        config = load_config(args.config, overrides=args.set)
        outdir = Path(config["output"]["directory"] if args.out is None else args.out)
        stages = (["tensor", "kernel", "solve"] if args.command == "pipeline"
                  else [args.command])
        planned = plan(config, stages)
        created = [d for d in (outdir, *outdir.parents) if not d.exists()]
        recorded = _check_output_dir(outdir, stages, config, args.force)
        runners = {"tensor": cmd_tensor, "kernel": cmd_kernel, "solve": cmd_solve}
        for stage in stages:
            start = time.perf_counter()
            runners[stage](planned, outdir)
            _update_meta(outdir, recorded, stage, time.perf_counter() - start)
        return 0
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        code = 3
    except (MemoryError, OverflowError) as err:
        print(f"error: problem too large: {err}", file=sys.stderr)
        code = 2
    except (HomogError, ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        code = 2
    # a failed run leaves no directory it made and wrote nothing into:
    # deepest first, up to the first that rmdir refuses as not empty
    for made in created:
        try:
            made.rmdir()
        except OSError:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
