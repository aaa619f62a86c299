"""Byte parity of the bosecool CLI between a git revision and the working tree.

Usage (from anywhere inside the repository):

    python3 tools/parity.py REV

``REV``'s ``src/`` is exported with ``git archive`` into a temporary
directory.  Each argv of a fixed list then runs in a fresh process against
both trees, under ``--format csv`` and ``--format json``, with one BLAS
thread.  The list is every invocation of ``perfbench.workloads.build`` at
both sizes (seeds 1, 3, 5, 7, 42), the ``bosecool`` examples in README.md,
the CLI tests' argv, and edge inputs at the boundary of each command's
domain.  stdout, the exit code and stderr (each tree's path masked) must
match.  One line is printed per mismatch; a stdout mismatch also gives how
many lines differ and the largest relative change of a numeric cell on
them.  The exit status is 1 if there is any mismatch, else 0.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from bosecool import fock, suites  # noqa: E402
from bosecool import gaussian as G  # noqa: E402
from perfbench import workloads  # noqa: E402

SEEDS = (1, 3, 5, 7, 42)
WORKERS = 2  # each run is single-threaded; two keep the machine responsive
TIMEOUT_S = 300

# Argv of tests/test_cli.py that run without a pytest fixture; {tmp} is the
# directory holding the data files written by ``_write_inputs``.
TEST_ARGV = [
    "limit --beta 1 --omega0 1 --omegas 2",
    "limit --omegas 0.5",
    "limit --beta not-a-number",
    "limit --omegas 800",
    "limit --omegas 1e308 --beta 1e-308",
    "limit --config {tmp}/run.cfg --beta 1.5",
    "limit --config {tmp}/bad.cfg",
    "optimize-spectrum --lambdas 4.0 --modes 2",
    "optimize-spectrum --lambdas 120.8 --modes 2,5 --analytic-compare",
    "optimize-spectrum --lambdas 1.5,3.0 --modes 1,2 --jobs 1",
    "optimize-spectrum --lambdas 1.5,3.0 --modes 1,2 --jobs 2",
    "optimize-spectrum --lambdas 1.5,5.0 --modes 1,2 --seed 42",
    "simulate-gaussian --omegas 2.0 --recharger identity --rounds 4",
    "simulate-gaussian --omegas 1.5,2.5 --rounds 3",
    "simulate-gaussian --omegas 1.5,2.5 --rounds 4 --seed 42",
    "simulate-gaussian --omegas 2.0 --recharger-json {tmp}/recharger.json --rounds 2",
    "simulate-gaussian --omegas 2.0 --recharger beam-splitter --theta 0.4 --rounds 2",
    "simulate-gaussian --omegas 2.0 --recharger-json {tmp}/bad.json",
    "simulate-pexchange --p 2 --rounds 40 --record-every 10",
    "simulate-pexchange --p 2 --mode collision --t-max 0.3 --t-points 7",
    "simulate-pexchange --p 1,2 --rounds 25 --record-every 5 --seed 42",
    *(
        f"simulate-pexchange {flags} --jobs {jobs}"
        for flags in ("--p 1,2,3 --rounds 40 --record-every 10", "--mode collision --t-points 5")
        for jobs in (1, 2, 3)
    ),
    "simulate-pexchange --p 1,2 --rounds 3 --jobs 8",
    "simulate-pexchange --p 2 --rounds 3 --jobs 4",
    "optimize-spectrum --lambda-count 3 --jobs 5",
    "simulate-pexchange --nbar-s 0 --rounds 5",
    "simulate-pexchange --nbar-m 0 --rounds 5",
    "simulate-pexchange --beta 0 --rounds 5",
    "simulate-pexchange --p 1 --rounds 5 --record-every 0",
    "simulate-pexchange --p 1 --rounds 5 --record-every -1",
    "property-suite --trials 150",
    "property-suite --trials 120 --seed 42",
    "property-suite --trials 0",
    "property-suite --trials -3",
]

# Inputs at the edge of each command's domain: overflow, non-finite values,
# tolerances outside (0, 1), record or grid counts at or below their bounds,
# a negative seed, suite trial counts on either side of a stacked chunk and
# of near-optimal's 500-trial cap, collision sweeps on either side of a
# chunk of durations, spectrum stacks holding a converged and a refused
# cell, ragged stacks of mixed N (with N = 1 and repeated sizes), spectrum
# sweeps at ``--jobs`` above one (still one in-process stack), p-exchange
# cells over workers in both modes, unsorted and repeated interaction
# orders, four orders over three workers, orders of two cutoffs in one run,
# empty size, ratio and order lists, a squeezing and displacing recharger
# (nu and alpha nonzero in every round), a spectrum sweep whose error row
# sits at the largest N (empty g_j and sigma_analytic_sampled cells), and
# config files with a misspelt switch and with a key that no command has,
# a frequency that overflows the Fock Hamiltonian, the squeezing recharger
# run until the system is refused, the parser's help, version and usage
# errors (the empty argv is ``--format`` alone), hot baths (beta 1e-8) for
# sigma* and Sigma, and p-exchange asymptotes at a short duration, at small
# couplings (over two cutoffs, and at omega0 = omega1 down to 1e-20), at
# t = 0, on cold machines (an up rate that underflows at 1e-200) and on a
# machine hot enough that the closed form cancels; the first
# runs the README pexchange example at its default ``--record-every 1`` (60k
# rows).
EDGE_ARGV = [
    "simulate-pexchange --p 1,2,3 --nbar-s 2 --nbar-m 1.5 --t 5e-3 --rounds 20000"
    " --record-every 1",
    "simulate-pexchange --rounds 1",
    "simulate-pexchange --rounds 5 --record-every 10",
    "simulate-pexchange --rounds 0 --record-every 0",
    "simulate-pexchange --mode collision --t-points 0",
    "simulate-pexchange --mode collision --t-points -1",
    "simulate-pexchange --t 1e300",
    "simulate-pexchange --chi 1e200",
    "simulate-pexchange --t -1",
    "optimize-spectrum --lambdas nan --modes 2",
    "optimize-spectrum --n0 nan",
    "optimize-spectrum --lambdas 120.8 --modes 64,100",
    "optimize-spectrum --lambdas 10000 --modes 4",
    "optimize-spectrum --lambda-count 0",
    "optimize-spectrum --lambda-count -1",
    "optimize-spectrum --n0 1e20 --lambdas 1e10 --modes 5",
    "optimize-spectrum --n0 1e200 --lambdas 1e190 --modes 5",
    "limit --omegas 30",
    "limit --omegas 700",
    "limit --beta nan",
    "limit --omega0 nan",
    "limit --omegas 1.5,nan,2.5",
    "limit --beta inf",
    "simulate-pexchange --tail-tol 0",
    "simulate-pexchange --tail-tol -1",
    "simulate-pexchange --tail-tol 2",
    "simulate-pexchange --chi nan",
    "simulate-pexchange --t nan",
    "simulate-pexchange --mode collision --t-max nan",
    "simulate-pexchange --nbar-s inf --rounds 50",
    "simulate-pexchange --beta inf --rounds 50",
    "property-suite --trials 1",
    "property-suite --trials 501",
    f"property-suite --trials {suites.CHUNK + 1} --seed 7",
    f"property-suite --trials {2 * suites.CHUNK + 3} --seed 3",
    "property-suite --seed -1",
    *(
        f"simulate-pexchange --p 1,2,3 --mode collision --t-points {n}"
        for n in (1, fock.CHUNK, fock.CHUNK + 1, 2 * fock.CHUNK + 1)
    ),
    "simulate-pexchange --p 1,2,3 --mode collision --t-max 0 --t-points 3",
    "optimize-spectrum --n0 1 --lambdas 5,1012.27 --modes 68",
    "optimize-spectrum --modes 1,2,4,8 --lambda-count 7 --jobs 2",
    "optimize-spectrum --modes 1,2,1024 --lambdas 1.05,120.8",
    "optimize-spectrum --n0 1 --modes 1,4,68 --lambdas 5,1012.27",
    "optimize-spectrum --modes 2,2,1,8 --lambdas 3,1.5 --jobs 2",
    "optimize-spectrum --modes=",
    "simulate-pexchange --p 1,2,3 --rounds 200 --record-every 20 --jobs 2",
    "simulate-pexchange --p 1,2,3 --mode collision --t-points 17 --jobs 3",
    "optimize-spectrum --modes 1,2,4,8 --lambda-count 7 --jobs 5",
    "simulate-pexchange --p=",
    "simulate-pexchange --p 3,1,2 --rounds 30 --record-every 7",
    "simulate-pexchange --p 3,1,2 --mode collision --t-points 4 --jobs 2",
    "simulate-pexchange --p 2,2,1 --rounds 3",
    "simulate-gaussian --omegas 2.0 --recharger-json {tmp}/squeeze-displace.json --rounds 6",
    "optimize-spectrum --n0 1 --lambdas 1012.27,4 --modes 2,68 --analytic-compare",
    "optimize-spectrum --lambdas 4 --modes 2 --config {tmp}/switch-typo.cfg",
    "limit --config {tmp}/unknown-key.cfg",
    "optimize-spectrum --lambdas= --modes 2",
    "simulate-pexchange --p 1,2,3,4 --rounds 60 --record-every 7 --jobs 3",
    *(
        f"simulate-pexchange --p 1,2,30 --chi 1e-20 --nbar-s 0.5 --nbar-m 0.5 {flags}"
        for flags in ("--rounds 30 --record-every 7", "--rounds 30 --jobs 2",
                      "--mode collision --t-points 4")
    ),
    "simulate-pexchange --beta 1e-320 --rounds 5",
    "simulate-gaussian --omegas 2.0 --recharger-json {tmp}/squeeze-displace.json --rounds 200",
    "--help",
    "--version",
    "limit --help",
    "optimize-spectrum --help",
    "bogus",
    "limit --bogus",
    "limit --rounds 5",
    "",
    "--bogus limit",
    "-- limit",
    "limit --omegas 0.5,1.0,1.5,2.5",
    "simulate-gaussian --omegas 0.5,1.0,1.5,2.5 --rounds 3",
    "limit --omegas 0.3,0.7",
    "limit --beta 1e-162 --omega0 1e-162 --omegas 1e-161",
    "simulate-gaussian --beta 1e-200 --omega0 1e-200 --omegas 2e-200 --rounds 1",
    "limit --beta 1e-320 --omegas 2",
    "limit --beta 1e-8 --omega0 1 --omegas 1.5,2.5",
    "simulate-gaussian --beta 1e-8 --omega0 1 --omegas 1.5,2.5 --rounds 1",
    "simulate-pexchange --p 1,2 --t 1e-7 --rounds 3",
    "simulate-pexchange --p 1,2,20 --chi 1e-9 --nbar-s 0.1 --nbar-m 0.05 --rounds 30"
    " --record-every 7",
    "simulate-pexchange --nbar-m 1e-30 --rounds 3",
    "simulate-pexchange --nbar-m 1e-200 --rounds 3",
    "simulate-pexchange --p 1 --chi 1e-9 --nbar-s 0.5 --nbar-m 0.5 --rounds 3",
    "simulate-pexchange --p 1 --chi 1e-14 --nbar-s 0.5 --nbar-m 0.5 --rounds 3",
    "simulate-pexchange --p 1 --chi 1e-20 --nbar-s 0.5 --nbar-m 0.5 --rounds 3",
    "simulate-pexchange --t 0 --rounds 3",
    "simulate-pexchange --p 1 --nbar-m 1e17 --rounds 3",
]


def readme_argv() -> list[list[str]]:
    """The ``bosecool ...`` example lines of README.md, without ``--out``."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    out = []
    for line in text.splitlines():
        if not line.startswith("bosecool "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i : i + 2]
        out.append(argv)
    return out


def argv_list(tmp: Path) -> list[list[str]]:
    """The argv to compare, in a fixed order, without duplicates."""
    seen, out = set(), []
    candidates = [
        inv.argv
        for size in workloads.SIZES
        for seed in SEEDS
        for name in workloads.NAMES
        for inv in workloads.build(name, seed, size)
    ]
    candidates += readme_argv()
    candidates += [shlex.split(a.format(tmp=tmp)) for a in TEST_ARGV + EDGE_ARGV]
    for argv in candidates:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(list(argv))
    return out


def _write_inputs(tmp: Path) -> None:
    """Config and recharger files that TEST_ARGV and EDGE_ARGV refer to."""
    (tmp / "run.cfg").write_text("beta = 2.0\nomegas = 3.0\n")
    (tmp / "bad.cfg").write_text("no equals sign here\n")
    (tmp / "switch-typo.cfg").write_text("analytic_compare = ture\n")
    (tmp / "unknown-key.cfg").write_text("omgeas = 3\n")
    c, s = math.cos(0.4), math.sin(0.4)
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    (tmp / "recharger.json").write_text(json.dumps({
        "C": [[[c, 0.0], [s, 0.0]], [[-s, 0.0], [c, 0.0]]], "S": zero,
    }))
    (tmp / "bad.json").write_text(json.dumps({
        "C": [[[1.0, 0.0], [0.001, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "S": zero,
    }))
    u = G.compose(
        G.make_displacement([0.3 + 0.2j, -0.1j]),
        G.compose(G.make_squeezer([0.3, 0.1]), G.make_beam_splitter(0, 1, 2, 0.4)),
    )

    def pairs(a):
        return [[z.real, z.imag] for z in a.tolist()]

    (tmp / "squeeze-displace.json").write_text(json.dumps({
        "C": [pairs(row) for row in u.C], "S": [pairs(row) for row in u.S],
        "d": pairs(u.d_alpha),
    }))


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_cli(src: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr (``src`` masked) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "bosecool.cli", *argv], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr.replace(str(src), "<src>")


def _first_difference(a, b) -> str:
    if isinstance(a, int):
        return f"{a} -> {b}"
    lines_a, lines_b = a.splitlines(), b.splitlines()
    i = next(
        (k for k, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
        min(len(lines_a), len(lines_b)),
    )
    x = lines_a[i] if i < len(lines_a) else "<end>"
    y = lines_b[i] if i < len(lines_b) else "<end>"
    return f"line {i + 1}: {x[:120]!r} -> {y[:120]!r}"


def _cells(line: str) -> list[str]:
    """The cells of a CSV row, a ``# key = value`` header or a JSON line."""
    return [c for c in re.split(r'[\s,=:"\[\]{}]+', line) if c]


def _stdout_change(a: str, b: str) -> str:
    """How many lines of two stdouts differ, and the largest relative change
    of a numeric cell between the differing lines (inf where a value is not
    finite on one side only)."""
    pairs = [(x, y) for x, y in itertools.zip_longest(a.splitlines(), b.splitlines()) if x != y]
    worst = 0.0
    for x, y in pairs:
        for u, v in zip(_cells(x or ""), _cells(y or "")):
            try:
                fu, fv = float(u), float(v)
            except ValueError:
                continue
            if fu != fv and not (math.isnan(fu) and math.isnan(fv)):
                finite = math.isfinite(fu) and math.isfinite(fv)
                worst = max(worst, abs(fv - fu) / max(abs(fu), abs(fv)) if finite else math.inf)
    return f"({len(pairs)} lines differ, largest relative change {worst:.3g})"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="bosecool-parity-") as tmp_name:
        tmp = Path(tmp_name)
        (tmp / "rev").mkdir()
        _export(args[0], tmp / "rev")
        _write_inputs(tmp)
        trees = (tmp / "rev" / "src", ROOT / "src")
        cases = [a + ["--format", fmt] for a in argv_list(tmp) for fmt in ("csv", "json")]
        jobs = [(src, case) for case in cases for src in trees]
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(lambda job: run_cli(job[0], job[1], tmp), jobs))
        mismatches = 0
        for i, case in enumerate(cases):
            old, new = results[2 * i], results[2 * i + 1]
            for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    mismatches += 1
                    change = f" {_stdout_change(a, b)}" if what == "stdout" else ""
                    print(f"MISMATCH {shlex.join(case)}: {what} {_first_difference(a, b)}{change}")
    print(f"{len(cases)} runs compared against {args[0]}: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
