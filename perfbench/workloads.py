"""The benchmark's workloads: CLI invocations per pass, and their output checks.

A pass is a list of invocations of ``bosecool.cli.main``.  Each invocation
is split into operations (a spectrum cell, a property suite, a pexchange
``p`` cell, or the whole invocation for ``limit``/``simulate-gaussian``),
and each operation ends as one of

- ``ok``: the output passed its check;
- ``refused``: the program answered with a typed error row that its CLI
  contract allows (a spectrum cell whose Newton solve did not converge);
- ``failed``: a wrong exit code, a failed verdict or check, a crash, or
  bytes that differ from the first pass of the run.

Each command gets only the flags it consumes: ``--seed`` goes to
``property-suite`` alone and ``--jobs`` to nothing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field


NAMES = ("gaussian", "spectrum", "fock")

SIZES = {
    "full": {
        "trials": 300,
        "gauss_rounds": 500,
        "sweep_count": 60,
        "ladder": (8, 16, 32, 64, 100, 128, 256, 512, 1024),
        "iter_rounds": 20000,
        "t_points": 51,
    },
    "tiny": {
        "trials": 12,
        "gauss_rounds": 12,
        "sweep_count": 4,
        "ladder": (8, 32, 64),
        "iter_rounds": 400,
        "t_points": 5,
    },
}

SPECTRUM_RESIDUAL = 1e-12  # solve_stationarity's certificate target
ASYMPTOTE_REL = 0.01  # acceptance criterion 10: oracle vs closed-form asymptote
FINAL_ROUND_ABS = 5e-3  # acceptance criterion 10: final-round |delta nbar|
LADDER_LAMBDAS = (5.0, 20.0, 120.8)


@dataclass
class Invocation:
    name: str
    argv: list
    check: object  # (rc, metadata, rows) -> list of outcomes
    ops: int  # operations attempted by one run of the invocation


@dataclass
class Outcome:
    ok: int = 0
    refused: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ok + self.refused + self.failed

    def add(self, other: "Outcome") -> None:
        self.ok += other.ok
        self.refused += other.refused
        self.failed += other.failed
        self.notes.extend(other.notes)


def read_output(text: str) -> tuple[dict, list]:
    """Metadata header and rows (all values as strings) of a CLI CSV output."""
    lines = text.splitlines()
    meta = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition("=")
        meta[key.strip()] = value.strip()
        i += 1
    table = [r for r in csv.reader(lines[i:]) if r]
    header = table[0] if table else []
    return meta, [dict(zip(header, r)) for r in table[1:]]


def _finite(row: dict, columns) -> bool:
    try:
        return all(math.isfinite(float(row[c])) for c in columns)
    except (KeyError, ValueError):
        return False


def _one(ok: bool, note: str) -> list:
    return ["ok"] if ok else [("failed", note)]


def check_spectrum(cells: int):
    def check(rc, meta, rows):
        if len(rows) != cells:
            return [("failed", f"{len(rows)} rows, expected {cells}")] * cells
        outcomes = []
        for r in rows:
            if r.get("error"):
                outcomes.append(("refused", f"N={r['N']} lambda={r['lambda']}: {r['error']}"))
            elif _finite(r, ("sigma_star_star", "residual")) and float(r["residual"]) < SPECTRUM_RESIDUAL:
                outcomes.append("ok")
            else:
                outcomes.append(("failed", f"N={r['N']} lambda={r['lambda']}: residual {r['residual']}"))
        # The CLI exits 1 exactly when some cell carries an error.
        want = 1 if any(r.get("error") for r in rows) else 0
        if rc != want:
            return [("failed", f"exit {rc}, expected {want}")] * cells
        return outcomes
    return check


def check_property_suite(rc, meta, rows):
    outcomes = [_one(r.get("passed") == "true", f"suite {r.get('suite')} failed")[0] for r in rows]
    if len(rows) != 5 or rc != 0:
        return [("failed", f"exit {rc}, {len(rows)} suite rows")] * 5
    return outcomes


def check_limit(rc, meta, rows):
    return _one(rc == 0 and len(rows) == 1 and rows[0].get("verified") == "true",
                f"limit: exit {rc}")


def check_gaussian_trace(rounds: int):
    def check(rc, meta, rows):
        ok = rc == 0 and len(rows) == rounds and all(
            _finite(r, ("nth", "beta_eff", "Q", "Sigma")) for r in rows
        )
        return _one(ok, f"simulate-gaussian: exit {rc}, {len(rows)} rows")
    return check


def check_iterate(ps):
    def check(rc, meta, rows):
        outcomes = []
        for p in ps:
            mine = [r for r in rows if r["p"] == str(p)]
            try:
                oracle = float(meta[f"asymptote_oracle_p{p}"])
                closed = float(meta[f"asymptote_closed_form_p{p}"])
                final = max(mine, key=lambda r: int(r["L"]))
                ok = (
                    rc == 0
                    and all(_finite(r, ("nbar_oracle", "nbar_closed_form", "q_oracle")) for r in mine)
                    and abs(oracle - closed) / closed < ASYMPTOTE_REL
                    and abs(float(final["nbar_oracle"]) - float(final["nbar_closed_form"])) < FINAL_ROUND_ABS
                )
            except (KeyError, ValueError):
                ok = False
            outcomes += _one(ok, f"pexchange iterate p={p}: criterion-10 bounds")
        return outcomes
    return check


def check_sweep(ps, points: int):
    def check(rc, meta, rows):
        outcomes = []
        for p in ps:
            mine = [r for r in rows if r["p"] == str(p)]
            # q_closed_form is nan by the CLI's convention where the duration is
            # outside the short-time regime; every other column must be finite.
            ok = rc == 0 and len(mine) == points and all(
                _finite(r, ("t", "nbar_oracle", "nbar_closed_form", "q_oracle"))
                and not math.isinf(float(r["q_closed_form"]))
                for r in mine
            )
            outcomes += _one(ok, f"pexchange collision p={p}: non-finite or missing rows")
        return outcomes
    return check


def _fmt(values) -> str:
    return ",".join(repr(v) for v in values)


def build(name: str, seed: int, size: str = "full") -> list:
    """The invocations of one pass of workload ``name`` at ``seed``."""
    z = SIZES[size]
    ps = (1, 2, 3)
    if name == "gaussian":
        omegas = "1.5,2.5,3.5,4.5,5.5,6.5"
        return [
            Invocation("property-suite",
                       ["property-suite", "--trials", str(z["trials"]), "--seed", str(seed)],
                       check_property_suite, 5),
            Invocation("simulate-gaussian",
                       ["simulate-gaussian", "--beta", "1", "--omega0", "1", "--omegas", omegas,
                        "--rounds", str(z["gauss_rounds"])],
                       check_gaussian_trace(z["gauss_rounds"]), 1),
            Invocation("limit", ["limit", "--beta", "1", "--omega0", "1", "--omegas", "1.5,2.5"],
                       check_limit, 1),
        ]
    if name == "spectrum":
        ladder = z["ladder"]
        cells = 3 * z["sweep_count"]
        return [
            Invocation("sweep",
                       ["optimize-spectrum", "--n0", "10", "--lambda-min", "1.05",
                        "--lambda-max", "20", "--lambda-count", str(z["sweep_count"]),
                        "--modes", "1,2,4"],
                       check_spectrum(cells), cells),
            Invocation("ladder",
                       ["optimize-spectrum", "--n0", "10", "--lambdas", _fmt(LADDER_LAMBDAS),
                        "--modes", _fmt(ladder)],
                       check_spectrum(len(LADDER_LAMBDAS) * len(ladder)),
                       len(LADDER_LAMBDAS) * len(ladder)),
        ]
    if name == "fock":
        common = ["simulate-pexchange", "--p", "1,2,3", "--t", "5e-3",
                  "--rounds", str(z["iter_rounds"]), "--record-every", "100"]
        return [
            Invocation("iterate-readme-point", common + ["--nbar-s", "2", "--nbar-m", "1.5"],
                       check_iterate(ps), 3),
            Invocation("iterate-hot-point", common + ["--nbar-s", "5", "--nbar-m", "3"],
                       check_iterate(ps), 3),
            Invocation("collision-sweep",
                       ["simulate-pexchange", "--p", "1,2,3", "--mode", "collision",
                        "--t-max", "0.4", "--t-points", str(z["t_points"])],
                       check_sweep(ps, z["t_points"]), 3),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def tally(outcomes: list) -> Outcome:
    out = Outcome()
    for o in outcomes:
        if o == "ok":
            out.ok += 1
        else:
            kind, note = o
            setattr(out, kind, getattr(out, kind) + 1)
            out.notes.append(note)
    return out
