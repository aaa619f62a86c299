"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They run every workload at its tiny size, so they take about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result(workload: str, trace: int) -> tuple[dict, dict]:
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: [result(w, 1) for _ in range(2)] for w in workloads.NAMES}


def test_names_are_well_formed_and_unique(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


def test_declared_metrics_match_the_code(spec):
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_runs_at_tiny_size(workload, spec):
    line, detail = result(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert detail["environment"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_every_wrapped_name_resolves():
    sys.path.insert(0, str(ROOT / "src"))
    found, absent = tracer.Tracer().resolve()
    assert absent == []
    assert len(found) == sum(len(names) for names in tracer.TRACED.values())


def test_a_missing_name_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setitem(tracer.TRACED, "fock", tracer.TRACED["fock"] + ("no_such_function",))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["fock.no_such_function"]
    finally:
        t.uninstall()


def test_nonconverging_cell_counts_against_ok_frac():
    line, detail = result("spectrum", 0)
    assert any(n.startswith("N=64 lambda=120.8:") for n in detail["notes"])
    assert detail["refused"] > 0 and detail["failed_frac"] > 0
    assert line["metrics"]["ok_frac"]["value"] < 1.0


def test_two_traced_runs_give_identical_counts(traced, spec):
    for workload, ((a, da), (b, db)) in traced.items():
        assert a["correct"] and b["correct"], workload
        assert da["counts_stable"] and da["absent"] == []
        assert set(a["metrics"]) == {m["name"] for m in spec["per_layer"]}
        for name, unit in tracer.PER_LAYER:
            if unit in tracer.EXACT_UNITS:
                assert a["metrics"][name] == b["metrics"][name], (workload, name)


def test_zero_call_predictions(traced):
    def calls(workload, module):
        metrics = traced[workload][0][0]["metrics"]
        return sum(v["value"] for k, v in metrics.items()
                   if k.startswith(module + ".") and k.endswith(".calls"))

    for w in workloads.NAMES:
        assert (calls(w, "gaussian") > 0) == (w == "gaussian"), w
        assert (calls(w, "spectrum") > 0) == (w == "spectrum"), w
        assert (calls(w, "fock") > 0) == (w == "fock"), w
        assert traced[w][0][0]["metrics"]["fock.evolve_unitary.calls"]["value"] == 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = bench("gaussian", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert out.returncode != 0
        assert out.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run's directory is still there
