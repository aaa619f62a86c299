"""One workload in one fresh process: closed-loop passes of ``bosecool.cli.main``.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  It runs one untimed warm-up pass, whose outputs are the reference for
byte identity, then passes back to back until the time is up.  With
``--trace 1`` untraced and traced passes alternate, and the result holds
the per-layer metrics.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads


def _environment() -> dict:
    import numpy as np
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        env["blas"] = "unavailable"
    return env


class Runner:
    def __init__(self, main, passes: list, work: Path):
        self.main = main
        self.passes = passes
        self.work = work
        self.reference: dict[str, bytes] = {}
        self.outcome = workloads.Outcome()
        self.out_bytes = 0

    def run_pass(self, count: bool = True) -> list:
        """One pass; returns the seconds spent inside each ``main`` call."""
        gc.collect()
        walls = []
        self.out_bytes = 0
        for inv in self.passes:
            path = self.work / f"{inv.name}.csv"
            path.unlink(missing_ok=True)
            crash = ""
            start = time.perf_counter()
            try:
                rc = self.main(inv.argv + ["--out", str(path)])
            except Exception:  # a crash is a failed operation, not a harness error
                rc = None
                crash = traceback.format_exc(limit=3)
            walls.append(time.perf_counter() - start)
            result = self._check(inv, rc, path, crash)
            if count:
                self.outcome.add(result)
        return walls

    def _check(self, inv, rc, path: Path, crash: str) -> workloads.Outcome:
        if rc is None or not path.is_file():
            return workloads.tally([("failed", f"{inv.name}: {crash or f'no output, exit {rc}'}")] * inv.ops)
        data = path.read_bytes()
        self.out_bytes += len(data)
        ref = self.reference.setdefault(inv.name, data)
        if data != ref:
            return workloads.tally([("failed", f"{inv.name}: bytes differ from the first pass")] * inv.ops)
        meta, rows = workloads.read_output(data.decode())
        return workloads.tally(inv.check(rc, meta, rows))

    def loop(self, seconds: float, min_passes: int, probes: int = 0) -> tuple[list, list]:
        """Passes back to back for ``seconds``; returns (per-pass per-call walls,
        set-up probe times).  The probes are spread evenly over the run, each
        between two passes, so that they sample the same machine states."""
        walls, setup = [], []
        start = time.perf_counter()
        while len(walls) < min_passes or time.perf_counter() - start < seconds:
            if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
                setup.append(setup_probe())
            walls.append(self.run_pass())
        while len(setup) < probes:
            setup.append(setup_probe())
        return walls, setup


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter to ``import bosecool.cli`` done.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    and this process's reading before the spawn share one time base.  The
    child inherits this process's environment: one BLAS thread, ``src`` on
    the path.
    """
    code = "import time, bosecool.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.split()[-1]) - start


def trace_run(runner: Runner, main, seconds: float, min_passes: int) -> dict:
    """Untraced and traced passes alternate, so both see the same machine states."""
    tr = tracer.Tracer()
    traced_main = tr.wrap("cli.main", main)
    snaps, cells, walls, traced = [], [], [], []
    start = time.perf_counter()
    while len(traced) < min_passes or time.perf_counter() - start < seconds:
        runner.main = main
        walls.append(sum(runner.run_pass()))
        tr.reset()
        tr.install()
        runner.main = traced_main
        try:
            traced.append(sum(runner.run_pass()))
        finally:
            tr.uninstall()
        snaps.append(tr.snapshot())
        cells.extend(tr.durations.get("spectrum.solve_stationarity", []))
    runner.main = main
    return {
        "per_layer": tracer.layer_metrics(snaps, cells, runner.out_bytes,
                                          statistics.median(walls), statistics.median(traced)),
        "walls": walls,
        "traced_walls": traced,
        "absent": tr.absent,
        "counts_stable": tracer.counts_stable(snaps),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--probes", type=int, default=0, help="set-up probes spread over the run")
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    import bosecool.cli as cli

    runner = Runner(cli.main, workloads.build(args.workload, args.seed, args.size), Path(args.work))
    runner.run_pass(count=False)  # warm-up: lazy imports, caches, reference bytes
    shas = {name: hashlib.sha256(data).hexdigest() for name, data in runner.reference.items()}
    min_passes = 3 if args.size == "full" else 2
    result = {"environment": _environment(), "sha256": shas}

    if args.trace == 0:
        calls, setup = runner.loop(args.seconds, min_passes, args.probes)
        result.update(walls=[sum(c) for c in calls], calls=calls, setup=setup,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        result.update(trace_run(runner, cli.main, args.seconds, min_passes))

    o = runner.outcome
    result.update(attempted=o.attempted, ok=o.ok, refused=o.refused, failed=o.failed,
                  notes=sorted(set(o.notes)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
