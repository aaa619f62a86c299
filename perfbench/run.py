"""bosecool benchmark: CLI workloads timed in a fresh, BLAS-pinned process.

Usage (from the repository root):

    python3 perfbench/run.py --workload gaussian --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
ok_frac); ``--trace 1`` reports the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
detail: quartiles and sample counts, operation tallies, output sha256, the
environment, and any names the tracer could not find.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = {"full": 10, "tiny": 2}
CHILD_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}


def child_env() -> dict:
    """One BLAS/OpenMP thread, and the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--size", size,
             "--probes", str(SETUP_PROBES[size]), "--work", str(work)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    if out.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    """Median, quartiles and sample count of timings, with the samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[dict, dict]:
    """(result line, detail) of one workload."""
    res = run_worker(workload, seed, seconds, trace, size)
    detail = {k: res[k] for k in ("environment", "sha256", "ok", "refused", "notes")}
    detail["failed_frac"] = (res["failed"] + res["refused"]) / res["attempted"]
    detail["wall_s"] = summary(res["walls"])
    if trace:
        metrics = res["per_layer"]
        detail.update(traced_wall_s=summary(res["traced_walls"]), absent=res["absent"],
                      counts_stable=res["counts_stable"])
    else:
        detail["wall_s"]["per_call"] = res["calls"]
        detail["setup_s"] = summary(res["setup"])
        values = {
            # Each CLI call at its fastest in the run, summed over one pass.
            "wall_s": sum(min(call) for call in zip(*res["calls"])),
            "setup_s": detail["setup_s"]["median"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": res["ok"] / res["attempted"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    line = {
        "correct": res["failed"] == 0 and (not trace or res["counts_stable"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return line, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="'tiny' shrinks every workload, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bosecool" / "cli.py").is_file():
        print(f"benchmark: no bosecool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            line, detail = measure(name, args.seed, args.seconds, args.trace, args.size)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        detail["loadavg_at_start"] = load
        lines[name] = line
        print(json.dumps({"workload": name, "seed": args.seed, "detail": detail}))
        if args.workload == "all":
            print(json.dumps({"workload": name, **line}))
    if args.workload == "all":
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}.{k}": v for n, l in lines.items() for k, v in l["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
