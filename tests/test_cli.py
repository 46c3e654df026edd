"""CLI pipeline: config handling, artifacts, schemas, exit codes."""
import ast
import collections
import dataclasses
import functools
import importlib.util
import json
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homogmem import cli, errors, mesh as msh
from meshtools import LINE_EDITS, edit_line_elements, retag_elements, write_msh

SMALL_CONFIG = {
    "cell": {"a": 0.3, "b": 0.15, "angle_deg": 20.0, "d1": 1.0, "d2": 1.0},
    "mesh": {"mode": "builtin", "h": 1.0 / 24, "n_arc": 64},
    "kernel": {"m": 8, "epsilon": 1e-5, "fold_rho": False,
               "mesh": {"mode": "inclusion", "h": 1.0 / 24, "n_arc": 64}},
    "macro": {"n": 8, "tau": 5e-3, "t_end": 0.02, "sigma": 1.0,
              "snapshot_times": [0.0, 0.02], "u0": "paper"},
    "output": {"formats": ["vtk", "csv"]},
}


def write_config(directory: Path, payload=None) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(payload if payload is not None else SMALL_CONFIG))
    return path


def nested(path: str, value) -> dict:
    """The config document that sets the dotted ``path`` to ``value``."""
    for part in reversed(path.split(".")):
        value = {part: value}
    return value


def leaves(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


# JSON values by kind, and the kinds each config leaf accepts
JSON_KINDS = {
    "null": st.none(),
    "string": st.text(max_size=8),
    "bool": st.booleans(),
    "integer": st.integers(-10**6, 10**6),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    "list": st.lists(st.integers() | st.text(max_size=3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
ACCEPTED_KINDS = {
    path: {bool: {"bool"}, int: {"integer"}, float: {"integer", "number"},
           str: {"string"}, list: {"list"}}.get(type(default))
    for path, default in leaves(cli.DEFAULT_CONFIG)
} | {
    "mesh.msh_path": {"string", "null"},
    "macro.tensor_path": {"string", "null"},
    "macro.kernel_path": {"string", "null"},
    "mesh.subdomain_tags": {"object", "null"},
    "macro.u0": {"string", "object"},
}


def load_schema(name: str) -> dict:
    return json.loads(
        (resources.files("homogmem") / "schemas" / f"{name}.schema.json")
        .read_text()
    )


MSH_MUTATIONS = ("truncated-line", "node-count", "unknown-node",
                 "duplicated-triangle", "flipped-triangle", "non-finite-coordinate",
                 "non-numeric-field")


@functools.cache
def small_msh_lines() -> tuple[str, ...]:
    """The MSH 2.2 text of the small config's cell mesh, as lines."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "cell.msh"
        geom = msh.CellGeometry(**SMALL_CONFIG["cell"])
        write_msh(msh.build_cell_mesh(geom, h=1.0 / 24, n_arc=64), path)
        return tuple(path.read_text().splitlines())


def mutate_msh(lines, kind: str, draw) -> list[str]:
    """``lines`` with one defect of ``kind`` (one of ``MSH_MUTATIONS``),
    its place drawn by ``draw``: a data line cut after fewer of its fields,
    a wrong $Nodes count, an element naming a node id no node has, a
    triangle listed twice, a triangle listed clockwise, a node
    coordinate that is not finite, or a field or count of $Nodes or
    $Elements that is not a number."""
    lines = list(lines)
    nodes, elems = lines.index("$Nodes"), lines.index("$Elements")
    n_nodes = int(lines[nodes + 1])
    elem_rows = range(elems + 2, len(lines) - 1)
    tri_rows = [i for i in elem_rows if lines[i].split()[1] == "2"]
    if kind == "truncated-line":
        k = draw(st.sampled_from(
            [i for i, ln in enumerate(lines) if not ln.startswith("$")]))
        parts = lines[k].split()
        lines[k] = " ".join(parts[:draw(st.integers(0, len(parts) - 1))])
    elif kind == "node-count":
        lines[nodes + 1] = str(n_nodes + draw(st.integers(-3, 3).filter(bool)))
    elif kind == "unknown-node":
        k = draw(st.sampled_from(elem_rows))
        parts = lines[k].split()
        at = draw(st.integers(3 + int(parts[2]), len(parts) - 1))
        parts[at] = str(n_nodes + draw(st.integers(1, 10**6)))
        lines[k] = " ".join(parts)
    elif kind == "duplicated-triangle":  # listed again under a new id
        k = draw(st.sampled_from(tri_rows))
        lines[elems + 1] = str(int(lines[elems + 1]) + 1)
        lines.insert(k + 1, " ".join([str(10**6)] + lines[k].split()[1:]))
    elif kind == "non-finite-coordinate":
        k = draw(st.sampled_from(range(nodes + 2, nodes + 2 + n_nodes)))
        parts = lines[k].split()
        parts[draw(st.sampled_from([1, 2]))] = draw(
            st.sampled_from(["nan", "inf", "-inf"]))
        lines[k] = " ".join(parts)
    elif kind == "non-numeric-field":
        k = draw(st.sampled_from([i for i in range(nodes + 1, len(lines) - 1)
                                  if not lines[i].startswith("$")]))
        parts = lines[k].split()
        parts[draw(st.integers(0, len(parts) - 1))] = draw(
            st.sampled_from(["x", "abc", "nine", "1,5", "0x1"]))
        lines[k] = " ".join(parts)
    else:  # two corners swapped
        k = draw(st.sampled_from(tri_rows))
        parts = lines[k].split()
        i, j = draw(st.sampled_from([(-3, -2), (-3, -1), (-2, -1)]))
        parts[i], parts[j] = parts[j], parts[i]
        lines[k] = " ".join(parts)
    return lines


def msh_tensor(work: Path, lines, *sets: str) -> tuple[int, str | None]:
    """Exit code and tensor.json text of the tensor stage of the small config
    on the MSH file ``lines``, with extra ``--set`` overrides; ``work`` holds
    the file, the config and the output."""
    work.mkdir(exist_ok=True)
    msh_path = work / "cell.msh"
    msh_path.write_text("\n".join(lines) + "\n")
    out = work / "out"
    rc = cli.main(["tensor", "--config", str(write_config(work)), "--out", str(out),
                   "--set", 'mesh.mode="msh"', "--set", f'mesh.msh_path="{msh_path}"',
                   *(arg for value in sets for arg in ("--set", value))])
    tensor = out / "tensor.json"
    return rc, tensor.read_text() if tensor.exists() else None


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full pipeline run shared by the artifact-inspection tests."""
    base = tmp_path_factory.mktemp("cli")
    config = write_config(base)
    out = base / "out"
    rc = cli.main(["pipeline", "--config", str(config), "--out", str(out)])
    assert rc == 0
    return config, out


class TestConfig:
    def test_defaults_are_deep_merged(self, tmp_path):
        path = write_config(tmp_path, {"cell": {"a": 0.35}})
        config = cli.load_config(path)
        assert config["cell"]["a"] == 0.35
        assert config["cell"]["b"] == 0.2
        assert config["kernel"]["mesh"]["mode"] == "inclusion"

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, {"celll": {}})
        with pytest.raises(ValueError):
            cli.load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError):
            cli.load_config(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            cli.load_config(path)

    def test_set_overrides(self, tmp_path):
        path = write_config(tmp_path, {})
        config = cli.load_config(
            path, overrides=["macro.tau=0.01", 'mesh.mode="msh"']
        )
        assert config["macro"]["tau"] == 0.01
        assert config["mesh"]["mode"] == "msh"
        with pytest.raises(ValueError):
            cli.load_config(path, overrides=["macro.nope=1"])
        with pytest.raises(ValueError):
            cli.load_config(path, overrides=["macro.tau"])

    def test_int_is_stored_as_float_where_the_default_is_a_float(self, tmp_path):
        config = cli.load_config(write_config(tmp_path, {}),
                                 overrides=["macro.tau=1"])
        assert type(config["macro"]["tau"]) is float
        assert config["macro"]["tau"] == 1.0

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_leaf_rejects_other_json_types(self, tmp_path, data):
        path = data.draw(st.sampled_from(sorted(ACCEPTED_KINDS)))
        kind = data.draw(st.sampled_from(sorted(set(JSON_KINDS)
                                                - ACCEPTED_KINDS[path])))
        value = data.draw(JSON_KINDS[kind])
        document = tmp_path / "document.json"
        document.write_text(json.dumps(nested(path, value)))
        with pytest.raises(ValueError):
            cli.load_config(document)
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                         "--out", str(out),
                         "--set", f"{path}={json.dumps(value)}"]) == 2
        assert not out.exists()

    def test_readme_lists_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert (json.dumps(json.loads(block), sort_keys=True)
                == json.dumps(cli.DEFAULT_CONFIG, sort_keys=True))


class TestPipelineArtifacts:
    EXPECTED = [
        "tensor.json", "kernel.json", "kernel_samples.csv", "summary.json",
        "energy.csv", "snapshot_000000.vtk", "snapshot_000000.csv",
        "snapshot_000004.vtk", "snapshot_000004.csv", "meta.json",
    ]

    def test_all_artifacts_written(self, pipeline_run):
        _, out = pipeline_run
        for name in self.EXPECTED:
            assert (out / name).exists(), name

    @pytest.mark.parametrize("artifact", ["tensor", "kernel", "summary", "meta"])
    def test_payloads_validate_against_schemas(self, pipeline_run, artifact):
        jsonschema = pytest.importorskip("jsonschema")
        _, out = pipeline_run
        payload = json.loads((out / f"{artifact}.json").read_text())
        jsonschema.validate(payload, load_schema(artifact))

    def test_summary_contents(self, pipeline_run):
        _, out = pipeline_run
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 4
        assert summary["sigma"] == 1.0
        assert summary["n_dofs"] == 49
        assert summary["energy_monotone"] is True
        assert 0.0 < summary["e_end"] < summary["e0"]
        assert summary["warnings"] == []

    def test_energy_series_shape(self, pipeline_run):
        _, out = pipeline_run
        rows = (out / "energy.csv").read_text().strip().splitlines()
        assert rows[0].split(",") == ["n", "t", "energy", "l2_norm"]
        assert len(rows) == 1 + 5
        energies = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_snapshot_tables_cover_every_vertex(self, pipeline_run):
        _, out = pipeline_run
        rows = (out / "snapshot_000004.csv").read_text().strip().splitlines()
        assert rows[0].split(",") == ["x1", "x2", "u"]
        assert len(rows) == 1 + 9 * 9

    def test_meta_records_stages(self, pipeline_run):
        _, out = pipeline_run
        meta = json.loads((out / "meta.json").read_text())
        assert meta["tool"] == "homogmem"
        assert set(meta["stages"]) == {"tensor", "kernel", "solve"}
        assert all(s["wall_time_s"] >= 0.0 for s in meta["stages"].values())

    def test_reruns_are_byte_identical_except_meta(self, pipeline_run, tmp_path):
        config, out = pipeline_run
        out2 = tmp_path / "out2"
        assert cli.main(
            ["pipeline", "--config", str(config), "--out", str(out2)]
        ) == 0
        for name in self.EXPECTED:
            if name == "meta.json":
                continue
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_existing_artifacts_need_force(self, pipeline_run):
        config, out = pipeline_run
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out)])
        assert rc == 2
        rc = cli.main(
            ["pipeline", "--config", str(config), "--out", str(out), "--force"]
        )
        assert rc == 0


def test_every_shipped_schema_has_an_artifact(pipeline_run):
    _, out = pipeline_run
    schemas = resources.files("homogmem") / "schemas"
    names = [f.name.removesuffix(".schema.json") for f in schemas.iterdir()
             if f.name.endswith(".schema.json")]
    assert names
    for name in names:
        assert (out / f"{name}.json").exists(), name


class TestStages:
    def test_tensor_stage_alone(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["tensor", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "tensor.json").exists()
        assert not (out / "kernel.json").exists()
        payload = json.loads((out / "tensor.json").read_text())
        d = np.asarray(payload["d"])
        assert d.shape == (2, 2) and d[0, 1] == d[1, 0]
        assert max(payload["residuals"]) <= 1e-9

    def test_rerun_keeps_stages_and_drops_stale_meta_keys(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        # a meta.json from an earlier version with a key the schema lacks
        (out / "meta.json").write_text(json.dumps({
            "tool": "homogmem", "version": "0.0.1", "threads": None,
            "stages": {"kernel": {"wall_time_s": 1.0, "finished": "earlier"}},
        }))
        assert cli.main(["tensor", "--config", str(config), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        jsonschema.validate(meta, load_schema("meta"))
        assert set(meta["stages"]) == {"kernel", "tensor"}

    def test_corrector_export(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["tensor", "--config", str(config), "--out", str(out),
                       "--set", "output.write_correctors=true"])
        assert rc == 0
        assert (out / "corrector_1.csv").exists()
        assert (out / "corrector_2.csv").exists()

    def test_kernel_on_two_phase_cell_mesh(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["kernel", "--config", str(config), "--out", str(out),
                       "--set", 'kernel.mesh.mode="cell"'])
        assert rc == 0
        payload = json.loads((out / "kernel.json").read_text())
        assert payload["y2_measure"] == pytest.approx(
            payload["y2_measure_analytic"], rel=0.01
        )

    # periodicity is the corrector's constraint, not the mesh's: the kernel
    # stage reads a cell mesh whose frame does not pair, the tensor stage
    # refuses it
    def test_unpaired_msh_cell_serves_the_kernel_but_not_the_tensor(self, tmp_path,
                                                                    capsys):
        mesh = msh.build_cell_mesh(msh.CellGeometry(**SMALL_CONFIG["cell"]),
                                   h=1.0 / 24, n_arc=64)
        msh_path = tmp_path / "cell.msh"
        write_msh(dataclasses.replace(mesh, vertices=mesh.vertices * [1.0, 0.9]),
                  msh_path)
        config = write_config(tmp_path)
        sets = ["--set", 'mesh.mode="msh"', "--set", f'mesh.msh_path="{msh_path}"']
        assert cli.main(["kernel", "--config", str(config), "--out",
                         str(tmp_path / "kernel"), *sets,
                         "--set", 'kernel.mesh.mode="cell"']) == 0
        assert (tmp_path / "kernel" / "kernel.json").exists()
        capsys.readouterr()
        out = tmp_path / "tensor"
        assert cli.main(["tensor", "--config", str(config), "--out", str(out),
                         *sets]) == 2
        assert "outer boundary vertex off the unit square frame" in (
            capsys.readouterr().err)
        assert not (out / "tensor.json").exists()

    def test_solve_consumes_explicit_artifact_paths(self, pipeline_run, tmp_path):
        config, out = pipeline_run
        out2 = tmp_path / "solve_out"
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(out2),
            "--set", f'macro.tensor_path="{out / "tensor.json"}"',
            "--set", f'macro.kernel_path="{out / "kernel.json"}"',
            "--set", 'macro.u0="zero"',
        ])
        assert rc == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["e0"] == 0.0
        assert summary["e_end"] == 0.0

    def test_u0_expression(self, pipeline_run, tmp_path):
        config, out = pipeline_run
        out2 = tmp_path / "expr_out"
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(out2),
            "--set", 'macro.u0={"expression": "sin(pi*x1)*sin(pi*x2)"}',
            "--set", f'macro.tensor_path="{out / "tensor.json"}"',
            "--set", f'macro.kernel_path="{out / "kernel.json"}"',
        ])
        assert rc == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["e0"] > 0.0

    def test_mesh_file_mode_matches_builtin(self, pipeline_run, tmp_path):
        config, out = pipeline_run
        geom = msh.CellGeometry(a=0.3, b=0.15, angle_deg=20.0)
        mesh = msh.build_cell_mesh(geom, h=1.0 / 24, n_arc=64)
        msh_path = tmp_path / "cell.msh"
        write_msh(mesh, msh_path)
        out2 = tmp_path / "msh_out"
        rc = cli.main([
            "tensor", "--config", str(config), "--out", str(out2),
            "--set", 'mesh.mode="msh"',
            "--set", f'mesh.msh_path="{msh_path}"',
        ])
        assert rc == 0
        d_builtin = json.loads((out / "tensor.json").read_text())["d"]
        d_msh = json.loads((out2 / "tensor.json").read_text())["d"]
        assert d_builtin == d_msh

    # the boundary comes from the triangles, so line elements change nothing
    @pytest.mark.parametrize("edit", LINE_EDITS)
    def test_msh_line_elements_do_not_change_the_tensor(self, tmp_path, edit):
        rc, expected = msh_tensor(tmp_path / "intact", small_msh_lines())
        assert rc == 0
        lines = edit_line_elements(small_msh_lines(), edit)
        assert msh_tensor(tmp_path / "edited", lines) == (0, expected)

    def test_renumbered_physical_groups_need_only_subdomain_tags(self, pipeline_run,
                                                                 tmp_path):
        _, out = pipeline_run
        lines = retag_elements(small_msh_lines(), {msh.Y1: 7, msh.Y2: 8})
        rc, tensor = msh_tensor(tmp_path, lines,
                                'mesh.subdomain_tags={"7": "Y1", "8": "Y2"}')
        assert rc == 0
        assert tensor == (out / "tensor.json").read_text()


class TestExitCodes:
    def test_config_errors_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "out"
        assert cli.main(["tensor", "--config", str(bad), "--out", str(out)]) == 2
        config = write_config(tmp_path)
        assert cli.main(["tensor", "--config", str(config), "--out", str(out),
                         "--set", "macro.nope=1"]) == 2
        assert cli.main(["tensor", "--config", str(config), "--out", str(out),
                         "--set", 'mesh.mode="hexes"']) == 2
        assert cli.main(["kernel", "--config", str(config), "--out", str(out),
                         "--set", 'kernel.mesh.mode="hexes"']) == 2

    @pytest.mark.parametrize("override", [
        "macro.tau=null", "macro.n=2.5", "macro.n=true", 'kernel.m="5"',
        'cell.d1="1"', "macro.snapshot_times=0", 'mesh.mode="bogus"',
        'kernel.mesh.mode="bogus"', 'output.formats=["png"]', 'output.formats="vtk"',
        pytest.param(f"macro.tau={10**400}", id="macro.tau=10**400"),
    ])
    def test_config_gate_exits_2_before_any_stage(self, tmp_path, override):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", override])
        assert rc == 2
        assert not out.exists()

    # values of the right type that a stage would refuse only after earlier
    # stages had written their artifacts
    @pytest.mark.parametrize("override, message", [
        ("macro.sigma=2.0", "macro.sigma must lie in"),
        ("macro.n=0", "macro.n must be >= 1"),
        pytest.param(f"macro.n={10**30}", "macro.n=1000000000000000000000000000000 "
                     "gives more mesh vertices", id="macro.n=10**30"),
        ("macro.n=100000000", "macro.n=100000000 gives more mesh vertices"),
        ("kernel.mesh.h=1e-7", "kernel.mesh.h=1e-07 gives more mesh vertices"),
        ("mesh.h=1e-5", "mesh.h=1e-05 gives more mesh vertices"),
        # 1/h overflows to infinity before the grid count rounds it
        ("mesh.h=1e-320", "mesh.h=1e-320 gives more mesh vertices"),
        ("mesh.h=5e-324", "mesh.h=5e-324 gives more mesh vertices"),
        # counts the arcs put above the bound name them too
        ("mesh.n_arc=400000000", f"at mesh.n_arc=400000000, mesh.h={1.0 / 24} "
         "gives more mesh vertices (400000625)"),
        ("kernel.mesh.n_arc=10000000", "at kernel.mesh.n_arc=10000000, "
         f"kernel.mesh.h={1.0 / 24} gives more mesh vertices (45000036)"),
        ("macro.snapshot_times=[5.0]", "macro.snapshot_times entry 5.0"),
        ("macro.snapshot_times=[1e308]", "macro.snapshot_times entry 1e+308"),
        ("macro.t_end=-0.02", "macro.t_end must be finite and >= 0"),
        ("macro.t_end=1e308", "not a whole number of steps"),
        ("kernel.m=-1", "kernel.m must be >= 0"),
        pytest.param(f"kernel.m={10**30}", "kernel.m=1000000000000000000000000000000 "
                     "exceeds the", id="kernel.m=10**30"),
        ("kernel.epsilon=-1.0", "kernel.epsilon must be >= 0"),
        ("cell.a=0.6", "not strictly inside the unit cell"),
        ("cell.b=0.5", "semi-axes must satisfy"),
        ("cell.d1=NaN", "diffusion coefficients must be positive and finite"),
        ("cell.d2=Infinity", "diffusion coefficients must be positive and finite"),
        ("cell.angle_deg=NaN", "inclusion angle must be finite"),
    ])
    def test_value_range_gate_exits_2_before_any_stage(self, tmp_path, capsys,
                                                       override, message):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", override])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kernel_mesh", ["inclusion", "cell"])
    def test_kernel_m_above_the_kernel_mesh_exits_2_before_any_stage(
            self, tmp_path, capsys, kernel_mesh):
        payload = {**SMALL_CONFIG, "kernel": {
            **SMALL_CONFIG["kernel"],
            "mesh": {**SMALL_CONFIG["kernel"]["mesh"], "mode": kernel_mesh}}}
        config = write_config(tmp_path, payload)
        # the exact dof count of the kernel's eigenproblem: the inclusion
        # mesh's from its closed form, the cell mesh's from its Y2 submesh
        cm, km = SMALL_CONFIG["mesh"], SMALL_CONFIG["kernel"]["mesh"]
        if kernel_mesh == "inclusion":
            bound = msh.inclusion_interior_vertices(SMALL_CONFIG["cell"]["a"],
                                                    km["h"], km["n_arc"])
            what = "inclusion"
        else:
            cell_mesh = msh.build_cell_mesh(msh.CellGeometry(**SMALL_CONFIG["cell"]),
                                            cm["h"], cm["n_arc"])
            y2, _ = msh.submesh(cell_mesh, msh.Y2)
            bound = y2.n_vertices - np.unique(y2.boundary_edges).size
            what = "Y2"
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", f"kernel.m={bound + 1}"])
        assert rc == 2
        assert (f"exceeds the {bound} dofs of the {what} eigenproblem"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_inclusion_kernel_m_above_its_dofs_exits_2_before_any_stage(
            self, tmp_path, capsys):
        # four quarters' vertices bound the whole inclusion's, but those on
        # its arc are Dirichlet and shared axis vertices count once
        km = SMALL_CONFIG["kernel"]["mesh"]
        loose = 4 * msh.inclusion_mesh_vertices(SMALL_CONFIG["cell"]["a"],
                                                km["h"], km["n_arc"])
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                       "--out", str(out), "--set", f"kernel.m={loose}"])
        assert rc == 2
        assert "dofs of the inclusion eigenproblem" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["builtin", "msh"])
    def test_cell_kernel_m_above_its_y2_dofs_exits_2_before_any_stage(
            self, tmp_path, capsys, source):
        # the small config's cell mesh has 67 Y2 vertices off the interface
        # (the kernel stage's own count: "requested 68 eigenpairs of a
        # 67-dof system"), far below the cell mesh's vertex estimate of 689;
        # a mesh read from a file is gated too
        sets = ["--set", 'kernel.mesh.mode="cell"', "--set", "kernel.m=68"]
        if source == "msh":
            msh_path = tmp_path / "cell.msh"
            msh_path.write_text("\n".join(small_msh_lines()) + "\n")
            sets += ["--set", 'mesh.mode="msh"', "--set", f'mesh.msh_path="{msh_path}"']
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                       "--out", str(out), *sets])
        assert rc == 2
        assert "exceeds the 67 dofs of the Y2 eigenproblem" in capsys.readouterr().err
        assert not out.exists()

    def test_hostile_kernel_n_arc_is_refused_before_it_is_counted(
            self, tmp_path, capsys, monkeypatch):
        def counted(*args):
            raise AssertionError("the gate counted the inclusion mesh")

        monkeypatch.setattr(msh, "inclusion_mesh_vertices", counted)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                       "--out", str(out), "--set", "kernel.mesh.n_arc=400000000"])
        assert rc == 2
        assert "kernel.mesh.n_arc=400000000" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_kernel_mesh_h_is_refused_before_its_rings_are_counted(
            self, tmp_path, capsys, monkeypatch):
        # a/h rings overflowed the counter's int64 before the bound was met
        def counted(*args):
            raise AssertionError("the gate counted the inclusion mesh")

        monkeypatch.setattr(msh, "inclusion_mesh_vertices", counted)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                       "--out", str(out), "--set", "kernel.mesh.h=1e-300"])
        assert rc == 2
        assert ("kernel.mesh.h=1e-300 gives more mesh vertices"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_inclusion_kernel_m_at_its_dofs_passes_the_gate(self):
        km = SMALL_CONFIG["kernel"]["mesh"]
        dofs = msh.inclusion_interior_vertices(SMALL_CONFIG["cell"]["a"],
                                               km["h"], km["n_arc"])
        config = cli._merge(cli.DEFAULT_CONFIG,
                            {**SMALL_CONFIG, "kernel": {**SMALL_CONFIG["kernel"],
                                                        "m": dofs}})
        cli.plan(config, ["kernel"])

    @pytest.mark.parametrize("workload", ["default", "cell-fine", "macro-fine"])
    def test_benchmark_meshes_pass_the_size_gate(self, workload):
        config = cli._merge(cli.DEFAULT_CONFIG,
                            load_bench_workloads().config_overrides(workload, 0))
        cli.plan(config, ["tensor", "kernel", "solve"])

    def test_value_range_gate_checks_only_the_stages_that_run(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["tensor", "--config", str(config), "--out", str(out),
                         "--set", "macro.n=0", "--set", "kernel.m=-1"]) == 0
        assert (out / "tensor.json").exists()

    # mesh arguments the meshers refuse, checked by the meshers' own checks
    @pytest.mark.parametrize("override, message", [
        ("kernel.mesh.n_arc=30", "inclusion mesh n_arc must be a multiple of 4"),
        ("kernel.mesh.n_arc=4", "inclusion mesh n_arc must be at least 8"),
        ("kernel.mesh.h=0.0", "inclusion mesh spacing h must be positive and finite"),
        ("kernel.mesh.h=NaN", "inclusion mesh spacing h must be positive and finite"),
        ("mesh.h=0.0", "cell mesh spacing h must be positive and finite"),
        ("mesh.h=NaN", "cell mesh spacing h must be positive and finite"),
        ("mesh.h=Infinity", "cell mesh spacing h must be positive and finite"),
        ("mesh.n_arc=4", "cell mesh n_arc must be at least 8"),
    ])
    def test_mesh_argument_gate_exits_2_before_any_stage(self, tmp_path, capsys,
                                                         override, message):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_mesh_argument_gate_checks_only_the_meshes_built(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["tensor", "--config", str(config), "--out", str(out),
                         "--set", "kernel.mesh.n_arc=30"]) == 0
        # the inclusion mode does not build the cell mesh, the cell mode does
        assert cli.main(["kernel", "--config", str(config), "--out", str(out),
                         "--set", "mesh.h=0.0"]) == 0
        assert cli.main(["kernel", "--config", str(config), "--out", str(out),
                         "--force", "--set", "mesh.h=0.0",
                         "--set", 'kernel.mesh.mode="cell"']) == 2
        # a mesh read from a file ignores the built-in mesher's arguments
        msh_path = tmp_path / "cell.msh"
        write_msh(msh.build_cell_mesh(msh.CellGeometry(**SMALL_CONFIG["cell"]),
                                      h=1.0 / 24, n_arc=64), msh_path)
        assert cli.main(["tensor", "--config", str(config), "--out", str(out),
                         "--force", "--set", "mesh.h=0.0",
                         "--set", 'mesh.mode="msh"',
                         "--set", f'mesh.msh_path="{msh_path}"']) == 0

    # a kernel file is outside input: one the energy estimate does not cover
    # is refused before the macro problem is built; tests/test_kernel.py
    # covers every range
    @pytest.mark.parametrize("mutation", [
        {"terms": [[-1.0, 5.0]]}, {"terms": [[1.0, -5.0]]},
        {"terms": [[float("nan"), 5.0]]}, {"r": -1.5},
    ], ids=["negative-amplitude", "negative-rate", "nan-amplitude", "negative-r"])
    def test_invalid_kernel_file_exits_2(self, pipeline_run, tmp_path, capsys,
                                         mutation):
        config, out = pipeline_run
        payload = {**json.loads((out / "kernel.json").read_text()), **mutation}
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(json.dumps(payload))
        out2 = tmp_path / "solve"
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(out2),
            "--set", f'macro.tensor_path="{out / "tensor.json"}"',
            "--set", f'macro.kernel_path="{kernel_path}"',
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: kernel")
        assert not (out2 / "summary.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_invalid_tensor_file_exits_2(self, pipeline_run, tmp_path, capsys, value):
        config, out = pipeline_run
        payload = json.loads((out / "tensor.json").read_text())
        payload["d"][0][0] = float(value)
        tensor_path = tmp_path / "tensor.json"
        tensor_path.write_text(json.dumps(payload))
        out2 = tmp_path / "solve"
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(out2),
            "--set", f'macro.tensor_path="{tensor_path}"',
            "--set", f'macro.kernel_path="{out / "kernel.json"}"',
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: tensor")
        assert not (out2 / "summary.json").exists()

    # every key the solve stage reads from its input files is required; a
    # file without one is refused with the file and the key named
    @pytest.mark.parametrize("name, key", [
        ("tensor.json", "d"), ("kernel.json", "terms"), ("kernel.json", "r"),
        ("kernel.json", "y2_measure"), ("kernel.json", "m"),
        ("kernel.json", "m_eps"),
    ])
    def test_input_file_missing_key_exits_2(self, pipeline_run, tmp_path, capsys,
                                            name, key):
        config, out = pipeline_run
        payload = json.loads((out / name).read_text())
        del payload[key]
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths = {"tensor.json": out / "tensor.json",
                 "kernel.json": out / "kernel.json", name: path}
        out2 = tmp_path / "solve"
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(out2),
            "--set", f'macro.tensor_path="{paths["tensor.json"]}"',
            "--set", f'macro.kernel_path="{paths["kernel.json"]}"',
        ])
        assert rc == 2
        assert f"{path} has no key '{key}'" in capsys.readouterr().err
        assert not (out2 / "summary.json").exists()

    # a terms array that is not a list of [a, lambda] pairs is refused, not
    # re-paired; the message names the file
    @pytest.mark.parametrize("terms", [[1.5, 2.0, 0.5, 3.0], [[1.5, 2.0, 0.5, 3.0]]],
                             ids=["flat", "one-4-number-term"])
    def test_kernel_terms_not_pairs_exit_2(self, pipeline_run, tmp_path, capsys,
                                           terms):
        config, out = pipeline_run
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(
            {**json.loads((out / "kernel.json").read_text()), "terms": terms}))
        out2 = tmp_path / "solve"
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(out2),
            "--set", f'macro.tensor_path="{out / "tensor.json"}"',
            "--set", f'macro.kernel_path="{path}"',
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"kernel file {path}" in err and "[a, lambda] pairs" in err
        assert not (out2 / "summary.json").exists()

    # u0 that is not finite inside the domain is a config error; infinities
    # on the Dirichlet boundary only (log(0) at boundary midpoints) are dropped
    # with the boundary rows.  numpy warns of both, as in any run.
    @pytest.mark.parametrize("expr, code", [("sqrt(x1 - 0.5)", 2), ("log(x1)", 0)])
    def test_u0_not_finite_inside_the_domain_exits_2(self, pipeline_run, tmp_path,
                                                     capsys, expr, code):
        config, out = pipeline_run
        out2 = tmp_path / "solve"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = cli.main([
                "solve", "--config", str(config), "--out", str(out2),
                "--set", f'macro.tensor_path="{out / "tensor.json"}"',
                "--set", f'macro.kernel_path="{out / "kernel.json"}"',
                "--set", "macro.u0=" + json.dumps({"expression": expr}),
            ])
        assert rc == code
        assert ("macro.u0 is not finite" in capsys.readouterr().err) == (code == 2)
        assert (out2 / "summary.json").exists() == (code == 0)

    # the u0 gate runs the solve stage's own load before any stage writes
    def test_u0_not_finite_inside_the_domain_exits_2_before_any_stage(
            self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", 'macro.u0={"expression": "sqrt(x1 - 0.5)"}'])
        assert rc == 2
        assert "macro.u0 is not finite inside the domain" in capsys.readouterr().err
        assert not out.exists()

    # infinite only on the Dirichlet boundary: accepted, and numpy's warnings
    # of the dropped values are not printed (pytest makes them errors)
    def test_u0_infinite_on_the_boundary_runs_silently(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", 'macro.u0={"expression": "log(x1)"}'])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert (out / "summary.json").exists()

    # a meta.json the run could not extend is refused before any stage runs,
    # naming the file; --force starts it afresh
    @pytest.mark.parametrize("text", ["[]", '{"stages": []}', "not json", "{}"],
                             ids=["list", "stages-list", "not-json", "no-stages"])
    def test_malformed_meta_json_exits_2_before_any_stage(self, tmp_path, capsys,
                                                          text):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        meta_path = out / "meta.json"
        meta_path.write_text(text)
        rc = cli.main(["tensor", "--config", str(config), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta_path} is not a JSON object")
        assert err.count("\n") == 1
        assert not (out / "tensor.json").exists()
        assert cli.main(["tensor", "--config", str(config), "--out", str(out),
                         "--force"]) == 0
        assert set(json.loads(meta_path.read_text())["stages"]) == {"tensor"}

    def test_input_file_not_an_object_exits_2(self, pipeline_run, tmp_path,
                                              capsys):
        config, out = pipeline_run
        path = tmp_path / "kernel.json"
        path.write_text("[1, 2]")
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(tmp_path / "solve"),
            "--set", f'macro.tensor_path="{out / "tensor.json"}"',
            "--set", f'macro.kernel_path="{path}"',
        ])
        assert rc == 2
        assert f"{path} does not hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("tags, message", [
        ('{"1": "Foo", "2": "Y2"}', "'Foo' is not one of Omega, Y1, Y2"),
        ('{"x": "Y1"}', "mesh.subdomain_tags key 'x' is not an integer"),
    ], ids=["unknown-name", "non-integer-key"])
    def test_bad_subdomain_tags_exit_2(self, tmp_path, capsys, tags, message):
        rc, tensor = msh_tensor(tmp_path, small_msh_lines(),
                                f"mesh.subdomain_tags={tags}")
        assert rc == 2
        assert message in capsys.readouterr().err
        assert tensor is None

    def test_misspelled_config_key_exits_2_before_any_stage(self, tmp_path):
        config = write_config(tmp_path, {
            **SMALL_CONFIG, "macro": {**SMALL_CONFIG["macro"], "tua": 0.001}})
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_inputs_exit_2(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 2
        assert cli.main(["solve", "--config", str(config), "--out", str(out),
                         "--set", 'macro.u0="nope"']) == 2
        missing = tmp_path / "missing.json"
        assert cli.main(["tensor", "--config", str(missing),
                         "--out", str(out)]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        def explode(plan, outdir):
            raise errors.ConvergenceError("did not converge")

        monkeypatch.setattr(cli, "cmd_tensor", explode)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["tensor", "--config", str(config), "--out", str(out)]) == 3

    def test_blow_up_exits_3_without_summary(self, pipeline_run, tmp_path):
        # explicit Euler far beyond its step limit overflows within 200 steps;
        # the exit code reports it, with no numpy overflow warning before it
        config, out = pipeline_run
        out2 = tmp_path / "blowup"
        with pytest.warns(UserWarning), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main([
                "solve", "--config", str(config), "--out", str(out2),
                "--set", f'macro.tensor_path="{out / "tensor.json"}"',
                "--set", f'macro.kernel_path="{out / "kernel.json"}"',
                "--set", "macro.sigma=0.0", "--set", "macro.tau=0.01",
                "--set", "macro.t_end=2.0", "--set", "macro.snapshot_times=[0.0]",
            ])
        assert rc == 3
        assert not (out2 / "summary.json").exists()

    def test_t_end_not_a_multiple_of_tau_exits_2(self, pipeline_run, tmp_path,
                                                  capsys):
        config, out = pipeline_run
        out2 = tmp_path / "ragged"
        rc = cli.main([
            "solve", "--config", str(config), "--out", str(out2),
            "--set", f'macro.tensor_path="{out / "tensor.json"}"',
            "--set", f'macro.kernel_path="{out / "kernel.json"}"',
            "--set", "macro.t_end=0.001", "--set", "macro.tau=3e-4",
            "--set", "macro.snapshot_times=[0.0]",
        ])
        assert rc == 2
        assert "whole number of steps" in capsys.readouterr().err
        assert not (out2 / "summary.json").exists()

    @pytest.mark.parametrize("tau", ["0", "-0.01", "NaN", "Infinity"])
    def test_bad_tau_exits_2_before_touching_the_output(self, tmp_path, capsys, tau):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", f"macro.tau={tau}"])
        assert rc == 2
        assert "macro.tau must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    # sizes whose grid cannot even be addressed, so they fail before any work
    @pytest.mark.parametrize("h", ["1e-9", "3e-9", "5e-324"])
    def test_hostile_mesh_size_exits_2_in_one_line(self, tmp_path, capsys, h):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["tensor", "--config", str(config), "--out", str(out),
                       "--set", f"mesh.h={h}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    # sizes whose quarter-disk point array cannot be allocated, or whose
    # ring count does not fit the mesher's integers
    @pytest.mark.parametrize("h", ["1e-9", "3e-9", "1e-300"])
    def test_hostile_kernel_mesh_size_exits_2_in_one_line(self, tmp_path, capsys, h):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["kernel", "--config", str(config), "--out", str(out),
                       "--set", f"kernel.mesh.h={h}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    # a needle inclusion, which the cell kernel mode meshes in the gate: the
    # ellipse test overflowed with a numpy warning before the error
    @pytest.mark.parametrize("b", ["1e-300", "5e-324"])
    def test_tiny_cell_b_exits_2_before_any_stage_without_a_warning(
            self, tmp_path, capsys, b):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                           "--out", str(out), "--set", f"cell.b={b}",
                           "--set", 'kernel.mesh.mode="cell"'])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: material interface does not match the inclusion polygon; "
            "decrease n_arc or refine h\n")
        assert not out.exists()

    def test_msh_mode_without_path_exits_2_before_any_stage(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["tensor", "--config", str(config), "--out", str(out),
                       "--set", 'mesh.mode="msh"'])
        assert rc == 2
        assert "requires mesh.msh_path" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["duplicated", "flipped"])
    def test_invalid_msh_mesh_exits_2(self, tmp_path, capsys, defect):
        geom = msh.CellGeometry(a=0.3, b=0.15, angle_deg=20.0)
        msh_path = tmp_path / "cell.msh"
        write_msh(msh.build_cell_mesh(geom, h=1.0 / 24, n_arc=64), msh_path)
        lines = msh_path.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.split()[1:2] == ["2"])
        parts = lines[k].split()
        if defect == "duplicated":  # one triangle listed twice, under a new id
            start = lines.index("$Elements") + 1
            lines[start] = str(int(lines[start]) + 1)
            lines.insert(k + 1, " ".join([str(10**6)] + parts[1:]))
        else:  # one triangle listed clockwise among counterclockwise ones
            lines[k] = " ".join(parts[:-2] + parts[-1:] + parts[-2:-1])
        msh_path.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["tensor", "--config", str(config), "--out", str(out),
                       "--set", 'mesh.mode="msh"',
                       "--set", f'mesh.msh_path="{msh_path}"'])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (out / "tensor.json").exists()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_msh_text_exits_2(self, tmp_path, data):
        kind = data.draw(st.sampled_from(MSH_MUTATIONS), label="mutation")
        lines = mutate_msh(small_msh_lines(), kind, data.draw)
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        msh_path = work / "cell.msh"
        msh_path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["tensor", "--config", str(write_config(work)),
                       "--out", str(work / "out"),
                       "--set", 'mesh.mode="msh"',
                       "--set", f'mesh.msh_path="{msh_path}"'])
        assert rc == 2
        assert not (work / "out" / "tensor.json").exists()

    def test_u0_reaching_object_internals_exits_2_before_any_stage(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        expr = "().__class__.__mro__[1].__subclasses__().__len__()"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out),
                       "--set", "macro.u0=" + json.dumps({"expression": expr})])
        assert rc == 2
        assert not out.exists()

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main([])


def spy_on_builders(monkeypatch) -> collections.Counter:
    """Count the calls of the meshers, of ``cli._resolve_u0`` and, as
    ``"y2_submesh"``, of Y2 restrictions of a mesh not all Y2 already."""
    calls = collections.Counter()

    def spy(module, name, key=None, counts=lambda *args: True):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            if counts(*args):
                calls[key or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("build_cell_mesh", "read_msh", "build_inclusion_mesh",
                 "build_unit_square_mesh"):
        spy(msh, name)
    spy(cli, "_resolve_u0")
    spy(msh, "submesh", "y2_submesh", lambda mesh, label: bool(
        label == msh.Y2 and (mesh.subdomain != msh.Y2).any()))
    return calls


# Single numeric leaves set to boundary, tiny, huge, zero or negative values.
# A mesh size is either refused before any mesh is built (by its argument
# check or the vertex bound) or at most 4x the small config's resolution,
# since the gate builds the cell mesh in the cell kernel mode and the macro
# mesh; the inclusion mesh it only counts.
EDGE_FLOATS = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-8, 1e300, sys.float_info.max,
               float("inf"), -float("inf"), float("nan")]
EDGE_INTS = [0, -1, 10**7 + 1, 10**18]
PLAN_VALUES = {
    path: (st.sampled_from(EDGE_FLOATS) | st.floats() if type(default) is float
           else st.sampled_from(EDGE_INTS) | st.integers())
    for path, default in leaves(cli.DEFAULT_CONFIG) if type(default) in (int, float)
} | {
    "mesh.h": st.sampled_from(EDGE_FLOATS) | st.floats(1.0 / 96, 1e300),
    "mesh.n_arc": st.sampled_from(EDGE_INTS) | st.integers(-8, 256),
    "kernel.mesh.n_arc": st.sampled_from(EDGE_INTS) | st.integers(-8, 256),
    "macro.n": st.sampled_from(EDGE_INTS + [3162]) | st.integers(-8, 32),
}
# what cli.main reports with exit 2; its ConvergenceError is exit 3
EXIT_2_ERRORS = (errors.HomogError, ValueError, KeyError, OSError, MemoryError,
                 OverflowError)


class TestPlan:
    @pytest.mark.parametrize("kernel_mesh, cell_mesher", [
        ("inclusion", "build_cell_mesh"), ("cell", "build_cell_mesh"),
        ("cell", "read_msh")])
    def test_pipeline_builds_each_mesh_and_u0_once(self, tmp_path, monkeypatch,
                                                   kernel_mesh, cell_mesher):
        sets = ["--set", f'kernel.mesh.mode="{kernel_mesh}"']
        if cell_mesher == "read_msh":
            msh_path = tmp_path / "cell.msh"
            msh_path.write_text("\n".join(small_msh_lines()) + "\n")
            sets += ["--set", 'mesh.mode="msh"', "--set", f'mesh.msh_path="{msh_path}"']
        calls = spy_on_builders(monkeypatch)
        assert cli.main(["pipeline", "--config", str(write_config(tmp_path)),
                         "--out", str(tmp_path / "out"), *sets]) == 0
        kernel_mesher = ("build_inclusion_mesh" if kernel_mesh == "inclusion"
                         else "y2_submesh")
        assert calls == {"build_unit_square_mesh": 1, "_resolve_u0": 1,
                         cell_mesher: 1, kernel_mesher: 1}

    def test_solve_alone_builds_no_cell_or_inclusion_mesh(self, pipeline_run,
                                                          tmp_path, monkeypatch):
        config, out = pipeline_run
        calls = spy_on_builders(monkeypatch)
        # nor checks the cell: a solve run reads no geometry
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path),
                         "--set", f'macro.tensor_path="{out / "tensor.json"}"',
                         "--set", f'macro.kernel_path="{out / "kernel.json"}"',
                         "--set", "cell.a=0.6"]) == 0
        assert calls == {"build_unit_square_mesh": 1, "_resolve_u0": 1}

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_plan_returns_or_raises_an_exit_2_error(self, data):
        mode = data.draw(st.sampled_from(["inclusion", "cell"]), label="kernel mode")
        path = data.draw(st.sampled_from(sorted(PLAN_VALUES)), label="leaf")
        value = data.draw(PLAN_VALUES[path], label="value")
        config = cli._merge(cli.DEFAULT_CONFIG, SMALL_CONFIG)
        config = cli._merge(config, nested("kernel.mesh.mode", mode))
        config = cli._merge(config, nested(path, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                planned = cli.plan(config, ["tensor", "kernel", "solve"])
            except EXIT_2_ERRORS as err:
                assert not isinstance(err, errors.ConvergenceError)
            else:
                assert isinstance(planned, cli.Plan)


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_layer_names_resolve():
    # the benchmark's layer trace wraps these module attributes by name, and
    # a name it cannot find is only reported as absent in a traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
    wrapped = next(
        ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]
    )
    missing = [f"{module}.{attr}" for module, attr in wrapped
               if not hasattr(importlib.import_module(f"homogmem.{module}"), attr)]
    assert wrapped and not missing


class TestU0Expression:
    x1, x2 = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 37))

    def test_benchmark_paper_expression_matches_builtin(self):
        expr = load_bench_workloads().PAPER_U0.format(front=0.5)
        np.testing.assert_array_equal(
            cli._resolve_u0({"expression": expr})(self.x1, self.x2),
            cli._resolve_u0("paper")(self.x1, self.x2),
        )

    def test_listed_names_and_arithmetic_evaluate(self):
        u0 = cli._resolve_u0({"expression": "where(x1 < 0.5, -x2**2, e) % 3 + pi"})
        want = np.where(self.x1 < 0.5, -self.x2**2, np.e) % 3 + np.pi
        np.testing.assert_array_equal(u0(self.x1, self.x2), want)

    @pytest.mark.parametrize("expr", [
        "__import__('os')", "open", "sin(x1, out=x2)", "lambda: 1", "[x1][0]",
        "'text'", "x1 if x2 else 0", "x1 and x2", "(x1 := 1)", "sin(*x1)",
        "x1(0)", "True", "1j",
    ])
    def test_other_constructs_rejected(self, expr):
        with pytest.raises(ValueError):
            cli._resolve_u0({"expression": expr})

    @pytest.mark.parametrize("expr", ["9**9**9 + x1", "10**999", "1/0"])
    def test_constant_arithmetic_errors_are_config_errors(self, expr):
        u0 = cli._resolve_u0({"expression": expr})
        with pytest.raises(ValueError):
            u0(self.x1, self.x2)

    # "(2)", not "2": "2" followed by ".E0" is the float literal 2.E0
    @given(
        base=st.sampled_from(["x1", "x2", "pi", "e", "(x1 + 1)", "sin(x1)", "()",
                              "(2)", "1.5", "exp(x2 * pi)"]),
        attr=st.from_regex(r"\A_{0,2}[A-Za-z][A-Za-z0-9_]{0,12}\Z"),
        index=st.integers(-3, 3),
        subscript=st.booleans(),
        wrap=st.sampled_from(["{}", "sin({})", "1 + {}", "{} * x1", "{}()"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_attribute_and_subscript_rejected(self, base, attr, index, subscript,
                                              wrap):
        access = f"{base}[{index}]" if subscript else f"{base}.{attr}"
        with pytest.raises(ValueError):
            cli._resolve_u0({"expression": wrap.format(access)})
