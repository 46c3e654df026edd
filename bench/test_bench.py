"""Self-tests of the benchmark's own code.

    python3 -m pytest bench
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import gate  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from homogmem import cli  # noqa: E402

SMALL_CONFIG = {
    "mesh": {"h": 0.05, "n_arc": 64},
    "kernel": {"m": 6, "mesh": {"h": 0.05, "n_arc": 64}},
    "macro": {"n": 10, "t_end": 0.002, "snapshot_times": [0.0]},
    "output": {"formats": ["csv"]},
}


def span(id_, name, start, end, parent=None, **counts):
    return {"id": id_, "name": name, "parent": parent, "start": start,
            "end": end, "rss_kb": 0, **counts}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "a.inner", 2.0, 3.0, parent=1),
        span(3, "b", 5.0, 9.0, parent=0),
        span(4, layertrace.BOOKKEEPING, 9.0, 9.5, parent=0),
    ]
    own = layertrace.self_times(spans)
    assert own == pytest.approx({0: 2.5, 1: 2.0, 2: 1.0, 3: 4.0, 4: 0.5})


def test_layer_metrics_on_a_nested_tree():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "cli.cmd_solve", 0.5, 9.5, parent=0),
        span(2, "macro.run", 1.0, 9.0, parent=1),
        span(3, "macro.step", 2.0, 5.0, parent=2),
        span(4, "solvers.solve_spd", 2.5, 4.0, parent=3, saddle=False,
             residual=1e-13),
        span(5, layertrace.BOOKKEEPING, 4.0, 4.5, parent=3),
        span(6, "macro.step", 5.0, 8.0, parent=2),
        span(7, "solvers.solve_spd", 5.5, 7.5, parent=6, saddle=False,
             residual=3e-13),
    ]
    m = layertrace.layer_metrics(spans, {"solve": 8.5})
    assert m["macro.step_self_s"] == pytest.approx(1.0 + 1.0)
    assert m["solvers.solve_spd_s"] == pytest.approx(3.5)
    assert m["solvers.solve_spd_calls"] == 2
    assert m["solvers.solve_saddle_calls"] == 0
    assert m["solvers.solve_max_rel_residual"] == 3e-13
    assert m["macro.step_calls"] == 2
    assert m["cli.self_s"] == pytest.approx(1.0 + 1.0)
    assert m["trace.coverage"] == pytest.approx(8.0 / 8.5)


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    from homogmem import macro, solvers

    monkeypatch.delattr(solvers, "solve_spd")
    monkeypatch.setattr(macro, "energy", macro.energy)  # restored afterwards
    monkeypatch.setattr(layertrace, "WRAPPED",
                        (("solvers", "solve_spd"), ("macro", "energy")))
    recorder = layertrace.Recorder()
    recorder.install()
    assert recorder.absent == ["solvers.solve_spd"]
    assert hasattr(macro.energy, "__wrapped__")


def test_declared_metrics_match_what_the_benchmark_measures():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == [n for n in workloads.WORKLOADS if n in names]
    assert set(names) <= set(workloads.WORKLOADS)
    layer_names = set(layertrace.layer_metrics([], {})) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


def _load(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return cli.load_config(path)


def test_default_seed_reproduces_default_config(tmp_path):
    overrides = workloads.config_overrides("default", workloads.DEFAULT_SEED)
    assert _load(tmp_path, overrides) == cli.DEFAULT_CONFIG


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seeds_perturb_only_angle_and_front(tmp_path, name):
    base = _load(tmp_path, workloads.config_overrides(name, workloads.DEFAULT_SEED))
    seeded = _load(tmp_path, workloads.config_overrides(name, 7))
    assert abs(seeded["cell"]["angle_deg"] - base["cell"]["angle_deg"]) <= (
        workloads.ANGLE_JITTER_DEG)
    for section in ("cell", "macro"):
        for key in set(base[section]) - {"angle_deg", "u0"}:
            assert seeded[section][key] == base[section][key]
    for section in ("mesh", "kernel", "output"):
        assert seeded[section] == base[section]


def test_paper_front_expression_matches_the_paper_selector():
    x1, x2 = (v.ravel() for v in np.mgrid[0:1:21j, 0:1:21j])
    paper = cli._resolve_u0("paper")(x1, x2)
    moved = cli._resolve_u0({"expression": workloads.PAPER_U0.format(front=0.5)})
    assert moved(x1, x2) == pytest.approx(paper, rel=1e-14, abs=1e-300)


def _pipeline(tmp, config: dict):
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    done = subprocess.run(
        [sys.executable, "-m", "homogmem.cli", "pipeline", "--config",
         str(path), "--out", str(tmp / "out")],
        env=run.child_env(), capture_output=True, text=True, timeout=120)
    return done, gate.check_outputs(tmp / "out")


@pytest.fixture(scope="module")
def small_payloads(tmp_path_factory):
    done, (payloads, problems) = _pipeline(tmp_path_factory.mktemp("small"),
                                           SMALL_CONFIG)
    assert done.returncode == 0, done.stderr
    assert problems == []
    return payloads


def test_gate_catches_an_explicit_scheme_blow_up(tmp_path):
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["macro"].update(sigma=0.0, tau=0.01, t_end=0.2)
    done, (_, problems) = _pipeline(tmp_path, config)
    assert done.returncode != 0 or any("energy" in p for p in problems)


def test_gate_accepts_matching_goldens(small_payloads):
    goldens = gate.headline(small_payloads)
    assert gate.check_payloads(small_payloads, goldens) == []


def _tampered(payloads, name, **changes):
    copy = json.loads(json.dumps(payloads))
    copy[name].update(changes)
    return copy


def test_gate_rejects_nan_energy(small_payloads):
    bad = _tampered(small_payloads, "summary", e_end=math.nan)
    assert any("non-finite" in p for p in gate.check_payloads(bad))


def test_gate_rejects_rising_energy(small_payloads):
    e0 = small_payloads["summary"]["e0"]
    bad = _tampered(small_payloads, "summary", e_end=2.0 * e0,
                    energy_monotone=False)
    problems = gate.check_payloads(bad)
    assert any("energy rose" in p for p in problems)
    assert any("energy_monotone" in p for p in problems)


def test_gate_rejects_wrong_m_eps(small_payloads):
    goldens = gate.headline(small_payloads)
    bad = _tampered(small_payloads, "kernel",
                    m_eps=small_payloads["kernel"]["m_eps"] + 1)
    assert any("m_eps" in p for p in gate.check_payloads(bad, goldens))


def test_gate_rejects_broken_weight_identity_and_tensor_bound(small_payloads):
    bad = _tampered(small_payloads, "kernel",
                    total_weight=small_payloads["kernel"]["total_weight"] * 1.01)
    assert any("total weight" in p for p in gate.check_payloads(bad))
    bad = _tampered(small_payloads, "tensor", d=[[1.5, 0.0], [0.0, 0.5]])
    assert any("lambda_max" in p for p in gate.check_payloads(bad))


def test_gate_rejects_missing_payload(small_payloads):
    bad = dict(small_payloads)
    del bad["summary"]
    assert gate.check_payloads(bad) == ["summary.json missing"]


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(parent, [8.0] * 5, 5, 5, True, 0.1, False) == "improved"
    assert compare.verdict(parent, [8.0] * 5, 5, 5, True, 0.1, True) == "unchanged"
    assert compare.verdict(parent, [10.02] * 5, 2, 5, True, 0.1, False) == "unchanged"
    assert compare.verdict(parent, [12.0] * 5, 0, 5, True, 0.1, False) == "worse"
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0]
    assert compare.verdict(noisy, [9.0] * 5, 3, 5, True, 0.1, False) == "unresolved"
    assert compare.verdict(parent, [12.0] * 5, 5, 5, False, 0.1, False) == "improved"


def test_host_factor_scales_times_to_the_reference_host():
    speed = hostspeed.HostSpeed()
    assert speed.samples == []
    speed.samples = [1.5 * hostspeed.REFERENCE_PROBE_S] * 4
    factor = speed.factor()
    assert math.isclose(factor, 1.5)
    assert math.isclose(hostspeed.normalise(9.0, factor), 6.0)
    speed.probe(2)
    assert len(speed.samples) == 6 and all(t > 0 for t in speed.samples)
