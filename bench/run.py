"""homogmem benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload default --seed 0 --seconds 60 --trace 0

The load is one closed loop from this process: a fresh ``homogmem
pipeline`` child at a time, with BLAS pools pinned to one thread, repeated
until ``--seconds`` is used up (at least two pipelines, or one
untraced/traced pair with ``--trace 1``).  The artifacts of every child pass
through the correctness gate in ``gate.py``; a non-zero exit or a violation
counts as a failed run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: pipeline
wall time measured from outside, the stage walls from meta.json, the
child's peak RSS, and ``setup_s``, the time of a fresh child that imports
``homogmem.cli`` and loads the workload's config, one before each
pipeline.  Stages shorter than a second are also re-run alone after each
pipeline and in the time left at the end of the run.  Times are scaled to
a reference host speed by ``hostspeed.py``.  ``--trace 1`` alternates
untraced and traced pipelines and reports the per-layer metrics from
``layertrace.py``.

The last stdout line is the JSON result.  ``--record FILE`` also appends the
run, with machine and software provenance, to a JSON-lines file that
``compare.py`` reads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import hostspeed
import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CLI_SOURCE = ROOT / "src" / "homogmem" / "cli.py"
STAGES = ("tensor", "kernel", "solve")

PINNED_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Children are killed, and counted as failed, once the run reaches this age.
RUN_LIMIT_S = 165.0
MIN_ROUNDS = {False: 2, True: 1}
SHORT_STAGE_S = 1.0
SETUP_CODE = (
    "import sys\n"
    "from homogmem.cli import load_config\n"
    "load_config(sys.argv[1])\n"
)


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: str(PINNED_THREADS) for var in BLAS_THREAD_VARS})
    return env


def spawn(cmd: list[str], env: dict, cwd: Path, log: Path,
          timeout: float) -> Child:
    """Run ``cmd`` to completion or ``timeout``; wall time from spawn to
    exit, and its own ``ru_maxrss`` read with ``os.wait4``."""
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                proc.kill()

    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def _tail(path: Path, lines: int = 3) -> str:
    return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])


class Session:
    """One benchmark invocation: its temporary directory, config and runs."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.tmp = tmp
        self.env = child_env()
        self.config = tmp / "config.json"
        with open(self.config, "w") as fh:
            json.dump(workloads.config_overrides(workload, seed), fh)
        self.goldens = (gate.load_goldens(workload)
                        if seed == workloads.DEFAULT_SEED else None)
        self.children = 0
        self.failures: list[str] = []
        self.hard_deadline = time.perf_counter() + RUN_LIMIT_S
        self.out: Path | None = None
        self.speed = hostspeed.HostSpeed()

    def _spawn(self, cmd: list[str]) -> tuple[Child, Path]:
        self.speed.probe()
        self.children += 1
        log = self.tmp / f"stderr{self.children}.txt"
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        return spawn(cmd, self.env, self.tmp, log, timeout), log

    def setup(self) -> float | None:
        child, log = self._spawn(
            [sys.executable, "-c", SETUP_CODE, str(self.config)])
        if child.exit_code != 0:
            self.failures.append(f"setup exit {child.exit_code}: {_tail(log)}")
            return None
        return child.wall_s

    def _gated(self, cmd: list[str], out: Path) -> tuple[Child, dict | None]:
        """Run a CLI child that writes into ``out``; the child and its
        payloads, or None for the payloads when it failed."""
        child, log = self._spawn(cmd)
        payloads, problems = gate.check_outputs(out, self.goldens)
        if child.exit_code != 0:
            problems.insert(0, f"exit {child.exit_code}: {_tail(log)}")
        if problems:
            self.failures.append("; ".join(problems))
            return child, None
        return child, payloads

    def pipeline(self, traced: bool) -> dict | None:
        """One pipeline child; its measurements, or None when it failed.

        Its output directory is kept in ``self.out`` for stage re-runs until
        the next pipeline starts.
        """
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
        out = self.out = self.tmp / f"out{self.children + 1}"
        spans = self.tmp / f"spans{self.children + 1}.json"
        args = ["pipeline", "--config", str(self.config), "--out", str(out)]
        if traced:
            cmd = [sys.executable, str(BENCH / "layertrace.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "homogmem.cli", *args]
        child, payloads = self._gated(cmd, out)
        if payloads is None:
            self.out = None
            return None
        run = {"traced": traced, "pipeline_s": child.wall_s,
               "peak_rss_mb": child.peak_rss_mb}
        stages = payloads["meta"]["stages"]
        walls = {s: float(stages[s]["wall_time_s"]) for s in STAGES}
        run.update({f"{s}_s": wall for s, wall in walls.items()})
        if traced:
            with open(spans) as fh:
                trace = json.load(fh)
            run["layers"] = layertrace.layer_metrics(trace["spans"], walls)
            run["absent"] = trace["absent"]
        return run

    def stage_alone(self, stage: str) -> float | None:
        """Re-run one stage alone over the last pipeline's artifacts, as a
        user changing that stage's settings would; its wall time."""
        cmd = [sys.executable, "-m", "homogmem.cli", stage, "--config",
               str(self.config), "--out", str(self.out), "--force"]
        _, payloads = self._gated(cmd, self.out)
        if payloads is None:
            return None
        return float(payloads["meta"]["stages"][stage]["wall_time_s"])


def measure(session: Session, seconds: float, traced: bool) -> dict:
    """Repeat rounds until ``seconds`` is spent and aggregate the samples.

    An untraced round is a set-up sample, one pipeline and a re-run alone of
    each stage shorter than SHORT_STAGE_S, which does the same work as in
    the pipeline and gives those short walls more samples; the time left
    after the last round re-runs the short stages again.  A traced round is
    an untraced and a traced pipeline.

    Other tenants of a shared host make a process up to about 1.5 times
    slower, in spells of seconds to minutes, so the host speed probe runs
    before every child.  An untraced time metric is the mean of the run's samples
    (``setup_s``: their median) scaled by ``hostspeed.normalise`` to the
    reference host; the raw values are kept beside them.  Per-layer metrics
    are medians over the traced pipelines, not scaled.
    """
    deadline = min(time.perf_counter() + seconds, session.hard_deadline)
    session.setup()  # warm-up: file cache and bytecode, not timed
    setups, runs, round_walls = [], [], []
    stage_walls: dict[str, list[float]] = {s: [] for s in STAGES}
    short: list[str] = []

    def rerun_short() -> None:
        for stage in short:
            if session.out is not None:
                wall = session.stage_alone(stage)
                if wall is not None:
                    stage_walls[stage].append(wall)

    while time.perf_counter() < session.hard_deadline and (
            len(round_walls) < MIN_ROUNDS[traced]
            or time.perf_counter() + statistics.median(round_walls) <= deadline):
        start = time.perf_counter()
        if not traced:
            wall = session.setup()
            if wall is not None:
                setups.append(wall)
        for kind in ((False, True) if traced else (False,)):
            run = session.pipeline(kind)
            if run is None:
                continue
            runs.append(run)
            if not traced:
                for s in STAGES:
                    stage_walls[s].append(run[f"{s}_s"])
                if not short:
                    short = [s for s in STAGES if run[f"{s}_s"] < SHORT_STAGE_S]
        if not traced:
            rerun_short()
        round_walls.append(time.perf_counter() - start)

    plain = [r for r in runs if not r["traced"]]
    if traced:
        layered = [r for r in runs if r["traced"]]
        if not (plain and layered):
            raise RuntimeError("no traced and untraced pipeline pair succeeded")
        metrics = {key: statistics.median(r["layers"][key] for r in layered)
                   for key in layered[0]["layers"]}
        metrics["trace.overhead_s"] = (
            statistics.median(r["pipeline_s"] for r in layered)
            - statistics.median(r["pipeline_s"] for r in plain))
        return {"metrics": metrics, "runs": runs,
                "absent": sorted({n for r in layered for n in r["absent"]})}

    if not (plain and setups):
        raise RuntimeError("no pipeline or setup child succeeded")
    fill_walls: list[float] = []
    while short and session.out is not None and time.perf_counter() + (
            statistics.median(fill_walls) if fill_walls else 0.0) <= deadline:
        start = time.perf_counter()
        rerun_short()
        fill_walls.append(time.perf_counter() - start)

    session.speed.probe()
    raw = {f"{s}_s": statistics.fmean(walls) for s, walls in stage_walls.items()}
    raw["pipeline_s"] = statistics.fmean(r["pipeline_s"] for r in plain)
    raw["setup_s"] = statistics.median(setups)
    factor = session.speed.factor()
    metrics = {key: hostspeed.normalise(value, factor) for key, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    return {"metrics": metrics, "raw": raw, "host_factor": factor,
            "probes": session.speed.samples, "runs": runs, "setups": setups,
            "stage_walls": stage_walls, "absent": []}


def provenance() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas_vendor,
        "blas_threads": {var: PINNED_THREADS for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "workloads": {
            name: {"overrides": w.overrides, "why": w.why}
            for name, w in workloads.WORKLOADS.items()
        },
    }


def declared_metrics(traced: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if traced else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the run with provenance to this JSON-lines file")
    args = parser.parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"error: homogmem sources not found at {CLI_SOURCE}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    declared = declared_metrics(traced)
    # One CPU for this process and every child, so the host speed probe
    # times the CPU the children ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        session = Session(args.workload, args.seed, Path(tmp))
        try:
            measured = measure(session, args.seconds, traced)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            for failure in session.failures:
                print(f"  {failure}", file=sys.stderr)
            return 1

    for failure in session.failures:
        print(f"FAILED: {failure}")
    if measured["absent"]:
        print(f"absent wrapped names: {', '.join(measured['absent'])}")
    if "raw" in measured:
        print(f"host {measured['host_factor']:.4g}x the reference probe time; raw "
              + ", ".join(f"{k} = {v:.6g}" for k, v in measured["raw"].items()))
    metrics = measured["metrics"]
    result = {
        "correct": not session.failures,
        "attempted": session.children,
        "failed": len(session.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    for m in declared:
        print(f"{args.workload} seed={args.seed} {m['name']} = "
              f"{metrics[m['name']]:.6g} {m['unit']}")
    if args.record is not None:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "config": workloads.config_overrides(args.workload, args.seed),
                  "result": result, "failures": session.failures,
                  **{k: v for k, v in measured.items() if k != "metrics"},
                  "provenance": provenance()}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
