"""Benchmark workloads: homogmem config overrides and their seed perturbation.

Each workload is a set of overrides on ``homogmem.cli.DEFAULT_CONFIG``.  The
default seed reproduces the overrides exactly; any other seed perturbs the
inclusion tilt ``cell.angle_deg`` and the position of the initial front in
``macro.u0``, so a later claim can be re-checked on inputs it was not tuned
on.  The perturbations are small enough that the work per stage stays
comparable between seeds.
"""
from __future__ import annotations

import copy
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

BASE_ANGLE_DEG = 30.0
ANGLE_JITTER_DEG = 5.0
BASE_FRONT = 0.5
FRONT_JITTER = 0.05

# The built-in "paper" initial condition with its front moved to x1 = front.
PAPER_U0 = "4.0/(1.0+exp(-100.0*(x1-{front!r})))*x1*(1.0-x1)*sin(pi*x2)"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default",
            "the stock config users run: 1000 steps with 29 memory terms, so "
            "per-step auxiliary and energy work and the 100-pair eigensolve "
            "dominate",
            {},
        ),
        Workload(
            "cell-fine",
            "cell h=1/192 with a small kernel and macro problem: the mesher "
            "and the corrector saddle solve dominate, macro and kernel code "
            "barely run",
            {
                "mesh": {"h": 1.0 / 192},
                "kernel": {"m": 10, "mesh": {"h": 1.0 / 72, "n_arc": 192}},
                "macro": {"n": 50, "t_end": 0.01, "snapshot_times": [0.0, 0.01]},
            },
        ),
        Workload(
            "macro-fine",
            "macro n=200 (4x the dofs of default) at sigma=0.5 with 8 memory "
            "terms: the SPD step solve and snapshot output dominate, energy "
            "work is small",
            {
                "kernel": {"m": 25, "mesh": {"h": 0.0125, "n_arc": 192}},
                "macro": {"n": 200, "tau": 1e-3, "sigma": 0.5},
            },
        ),
    )
}


def config_overrides(name: str, seed: int) -> dict:
    """The config document for workload ``name`` at ``seed``."""
    overrides = copy.deepcopy(WORKLOADS[name].overrides)
    if seed == DEFAULT_SEED:
        return overrides
    rng = random.Random(seed)
    angle = BASE_ANGLE_DEG + rng.uniform(-ANGLE_JITTER_DEG, ANGLE_JITTER_DEG)
    front = BASE_FRONT + rng.uniform(-FRONT_JITTER, FRONT_JITTER)
    overrides.setdefault("cell", {})["angle_deg"] = round(angle, 6)
    overrides.setdefault("macro", {})["u0"] = {
        "expression": PAPER_U0.format(front=round(front, 6))
    }
    return overrides
