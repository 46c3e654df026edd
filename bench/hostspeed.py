"""Host speed probe: a fixed piece of work timed between benchmark children.

On a shared host the benchmark's processes run at one speed or about 1.5
times slower, in spells of seconds to minutes that come from other tenants,
not from homogmem.  The probe does the same fixed work every time
(conjugate-gradient steps in Python, an interpreter loop, a sort and a
pass over memory, the kinds of work the pipeline does) and needs no BLAS
thread, so the mean of its times over a run says how fast the host was
during that run; the run is pinned to one CPU, so the probe and the
children share it.
``normalise`` scales a time measured in the same run to what it would read
on a host where one probe takes REFERENCE_PROBE_S; the probe's code does
not depend on homogmem, so a change to the program moves the scaled times
by the same share as the raw ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# One probe on the unloaded 2-vCPU Xeon host the benchmark was defined on.
REFERENCE_PROBE_S = 0.022
PROBES_PER_GAP = 3

_GRID = 160
_CG_STEPS = 30
_LOOP = 60_000
_SORT = 200_000
_STREAM = 4_000_000


class HostSpeed:
    """Probe samples of one run."""

    def __init__(self):
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.identity(_GRID)
        self._matrix = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsr()
        self._rhs = np.linspace(1.0, 2.0, _GRID * _GRID)
        self._keys = np.sin(np.arange(_SORT) * 0.37)
        self._stream = np.linspace(0.0, 1.0, _STREAM)
        self.samples: list[float] = []
        self.probe()  # warm-up: first-call costs, not kept
        self.samples.clear()

    def _work(self) -> float:
        """Conjugate-gradient steps in Python, as the macro step solve takes
        them, an interpreter loop, a sort and a pass over 32 MB."""
        a = self._matrix
        x = np.zeros_like(self._rhs)
        r = self._rhs.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(_CG_STEPS):
            ap = a @ p
            alpha = rr / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            rr_next = r @ r
            p = r + (rr_next / rr) * p
            rr = rr_next
        acc = 0
        for i in range(_LOOP):
            acc += i * i
        return (float(acc) + x[0] + np.sort(self._keys)[0]
                + float(np.sum(self._stream * 1.0001)))

    def probe(self, count: int = PROBES_PER_GAP) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """How many times slower than the reference host this run was."""
        return statistics.fmean(self.samples) / REFERENCE_PROBE_S


def normalise(raw_s: float, factor: float) -> float:
    """``raw_s`` measured at ``factor`` times the reference time, scaled to
    the reference host."""
    return raw_s / factor
