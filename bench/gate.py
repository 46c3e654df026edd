"""Correctness gate applied to the artifacts of every benchmark run.

A run passes only when its payloads validate against the package schemas,
the solve did not blow up, the energy did not rise, the kernel total-weight
identity holds, the effective tensor respects lambda_max(D) <= d1, and, at
the default seed, the headline numbers equal the golden values recorded for
the workload.  ``check_payloads`` returns the list of violations; empty
means the run passed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "homogmem" / "schemas"
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"
PAYLOADS = ("tensor", "kernel", "summary", "meta")

TOTAL_WEIGHT_RTOL = 1e-12
# Goldens allow for a later exact solver or eigensolver that rounds
# differently; an algorithmic change to the problem moves them much more.
GOLDEN_RTOL = 1e-8


def load_goldens(workload: str) -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)[workload]


def read_payloads(outdir: Path) -> dict:
    """Parse every JSON payload the pipeline writes; missing ones are absent."""
    payloads = {}
    for name in PAYLOADS:
        path = outdir / f"{name}.json"
        if path.is_file():
            with open(path) as fh:
                payloads[name] = json.load(fh)
    return payloads


def headline(payloads: dict) -> dict:
    """The values pinned by the goldens."""
    return {
        "d": payloads["tensor"]["d"],
        "chi0": payloads["kernel"]["chi0"],
        "m_eps": payloads["kernel"]["m_eps"],
        "e_end": payloads["summary"]["e_end"],
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_payloads(payloads: dict, goldens: dict | None = None) -> list[str]:
    problems = []
    for name in PAYLOADS:
        if name not in payloads:
            problems.append(f"{name}.json missing")
            continue
        with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
            schema = json.load(fh)
        for err in jsonschema.Draft7Validator(schema).iter_errors(payloads[name]):
            problems.append(f"{name}.json: {err.message}")
    if problems:
        return problems

    summary = payloads["summary"]
    e0, e_end = summary["e0"], summary["e_end"]
    if not (math.isfinite(e0) and math.isfinite(e_end)):
        problems.append(f"non-finite energy: e0={e0}, e_end={e_end}")
    elif e_end > e0:
        problems.append(f"energy rose: e_end={e_end} > e0={e0}")
    if summary.get("energy_monotone") is not True:
        problems.append("energy_monotone is not true")

    ker = payloads["kernel"]
    y2 = ker["y2_measure"]
    identity = y2 / (1.0 - y2)
    if not _close(ker["total_weight"], identity, TOTAL_WEIGHT_RTOL):
        problems.append(
            f"total weight {ker['total_weight']!r} != |Y2|/(1-|Y2|) {identity!r}"
        )

    tensor = payloads["tensor"]
    d = np.asarray(tensor["d"], dtype=float)
    if not np.isfinite(d).all():
        problems.append("effective tensor is not finite")
    elif np.linalg.eigvalsh(d).max() > tensor["geometry"]["d1"]:
        problems.append(
            f"lambda_max(D)={np.linalg.eigvalsh(d).max()!r} exceeds d1"
        )

    if goldens is not None:
        got = headline(payloads)
        if got["m_eps"] != goldens["m_eps"]:
            problems.append(f"m_eps {got['m_eps']} != golden {goldens['m_eps']}")
        for key in ("chi0", "e_end"):
            if not _close(got[key], goldens[key], GOLDEN_RTOL):
                problems.append(f"{key} {got[key]!r} != golden {goldens[key]!r}")
        if not np.allclose(got["d"], goldens["d"], rtol=GOLDEN_RTOL, atol=0.0):
            problems.append(f"D {got['d']} != golden {goldens['d']}")
    return problems


def check_outputs(outdir: Path, goldens: dict | None = None):
    """(payloads, violations) for the artifacts in ``outdir``."""
    try:
        payloads = read_payloads(outdir)
    except (OSError, json.JSONDecodeError) as err:
        return {}, [f"unreadable payload: {err}"]
    return payloads, check_payloads(payloads, goldens)
