"""Command-line front end.

Subcommands
-----------
- ``limit``: Gaussian cooling limit of a machine spec, verified by a
  one-round swap-chain simulation.
- ``optimize-spectrum``: minimal-dissipation machine spectra over a
  (N, lambda) grid.
- ``simulate-gaussian``: round-by-round swap-chain (or custom recharger)
  cooling trace.
- ``simulate-pexchange``: exact excitation-exchange collision traces next to
  their closed-form predictions.
- ``property-suite``: randomized invariant suites with pass/fail report.

Every parameter is one row of ``PARAMS``: its flag is ``--key`` (with ``_``
spelled ``-``) and its config-file key is ``key``.  Every run emits a
metadata header (tool version, config hash, seed, assumption flags) and is
byte-deterministic for a fixed configuration.
Exit codes: 0 success, 1 numerical invariant failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import collisions as CA
from . import fock as F
from . import gaussian as G
from . import hbac, spectrum, suites, tableio
from .errors import BosecoolError, DomainError, ValidityError


def _float_list(text: str) -> list[float]:
    return [float(x) for x in str(text).replace(";", ",").split(",") if x != ""]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).replace(";", ",").split(",") if x != ""]


# One row per parameter: (key, kind, default, help).  ``kind`` parses the
# text of a flag or config value; ``bool`` makes a switch, and a tuple lists
# the allowed choices.
PARAMS = {
    "limit": (
        ("beta", float, 1.0, "bath inverse temperature"),
        ("omega0", float, 1.0, "system frequency"),
        ("omegas", _float_list, [2.0], "comma-separated machine frequencies"),
    ),
    "optimize-spectrum": (
        ("n0", float, 10.0, "initial system occupation (default 10)"),
        ("modes", _int_list, [1, 2, 4], "machine sizes, e.g. 1,2,4"),
        ("lambdas", _float_list, None, "explicit frequency ratios"),
        ("lambda_min", float, 1.05, "smallest ratio of the geometric grid"),
        ("lambda_max", float, 20.0, "largest ratio of the geometric grid"),
        ("lambda_count", int, 60, "size of the geometric grid"),
        ("analytic_compare", bool, False, "also report the sampled continuum's dissipation"),
    ),
    "simulate-gaussian": (
        ("beta", float, 1.0, "bath inverse temperature"),
        ("omega0", float, 1.0, "system frequency"),
        ("omegas", _float_list, [2.0], "comma-separated machine frequencies"),
        ("rounds", int, 10, "protocol rounds"),
        ("recharger", ("swap-chain", "identity", "beam-splitter"), "swap-chain", None),
        ("theta", float, math.pi / 4, "beam-splitter angle"),
        ("recharger_json", str, None, "JSON file with C, S, d as [re, im] pairs"),
    ),
    "simulate-pexchange": (
        ("p", _int_list, [1, 2, 3], "interaction orders, e.g. 1,2,3"),
        ("chi", float, 1.0, "coupling (default 1; flagged in metadata)"),
        ("t", float, 5e-3, "collision duration"),
        ("nbar_s", float, 2.0, "initial system occupation"),
        ("nbar_m", float, 1.5, "machine occupation"),
        ("beta", float, 1.0, "bath inverse temperature"),
        ("rounds", int, 20000, "iterate mode: collisions"),
        ("record_every", int, 1, "iterate mode: rounds between recorded rows"),
        ("mode", ("iterate", "collision"), "iterate", None),
        ("t_max", float, 0.5, "collision mode: largest duration"),
        ("t_points", int, 101, "collision mode: grid size"),
        ("tail_tol", float, 1e-12, "Gibbs truncation tolerance"),
    ),
    "property-suite": (("trials", int, 10000, "trials per suite"),),
}
COMMON = (
    ("seed", int, 42, "seed for randomized content (default 42)"),
    ("jobs", int, 1, "worker processes for simulate-pexchange's p cells (default 1)"),
)


def _parse_config(key: str, kind, raw: str):
    if kind is bool:  # a switch is one of eight spellings, in any case
        on, off = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
        return _parse_config(key, on + off, raw.lower()) in on
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError(
                f"config key {key!r}: invalid choice {raw!r} (choose from {', '.join(kind)})"
            )
        return raw
    return kind(raw)


def resolve(command: str, args, config: dict) -> tuple[dict, set]:
    """Each parameter's value: CLI flag, else config file, else default.

    Returns the values and the set of keys that fell back to their default.
    A config key that is no parameter of any command is an error; one of
    another command is ignored, so one file can serve several commands.
    """
    known = {key for table in (*PARAMS.values(), COMMON) for key, *_ in table}
    unknown = [key for key in config if key not in known]
    if unknown:
        raise ValueError(f"config key {unknown[0]!r} is no parameter of any command")
    values, defaulted = {}, set()
    for key, kind, default, _ in PARAMS[command] + COMMON:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
        elif key in config:
            values[key] = _parse_config(key, kind, config[key])
        else:
            values[key] = default
            defaulted.add(key)
    return values, defaulted


def _metadata(command: str, v: dict, keys) -> dict:
    """Header shared by every command; ``keys`` are the config values it records."""
    recorded = {k: v[k] for k in keys}
    meta = {
        "tool": "bosecool",
        "version": __version__,
        "command": command,
        "seed": v["seed"],
        "config_hash": tableio.config_hash(recorded),
    }
    meta.update({f"config.{k}": x for k, x in recorded.items()})
    return meta


def _pmap(fn, items: list, jobs: int, arg) -> list:
    """The concatenated lists ``fn(part, arg)`` over min(``jobs``, len(items))
    contiguous parts of ``items``, in order, the longer parts last: one worker
    process per part (the pool starts every worker up front), or in process
    for a single part."""
    k = max(1, min(jobs, len(items)))
    parts = [items[len(items) * i // k : len(items) * (i + 1) // k] for i in range(k)]
    if len(parts) == 1:
        return fn(parts[0], arg)
    # Imported on use, so that a run without workers never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(parts)) as pool:
        return list(itertools.chain(*pool.map(fn, parts, [arg] * len(parts))))


# Each command takes the resolved values and the defaulted keys, and returns
# (columns, metadata, exit code); the columns map each field, in order, to
# its cells.


def cmd_limit(v, defaulted):
    spec = hbac.MachineSpec(beta=v["beta"], omega0=v["omega0"], omegas=tuple(v["omegas"]))
    beta_star, lam = hbac.gaussian_cooling_limit(spec)

    cooling = spec.cooling_possible
    final = hbac.run_protocol(spec, hbac.build_swap_chain(spec), 1).final
    target_beta = beta_star if cooling else v["beta"]
    rel_err = abs(final.beta_eff - target_beta) / target_beta
    verified = rel_err < 1e-10

    meta = _metadata("limit", v, ("beta", "omega0", "omegas"))
    meta["sigma_precision"] = hbac.SIGMA_PRECISION
    row = {
        "beta": v["beta"],
        "omega0": v["omega0"],
        "omegas": ";".join(repr(w) for w in v["omegas"]),
        "lambda": lam,
        "beta_star": beta_star,
        "nbar_limit": spec.nbar(spec.omegas[-1]) if cooling else spec.nbar_system,
        "nth_one_round": final.nth,
        "beta_eff_one_round": final.beta_eff,
        "rel_error": rel_err,
        "cooling": cooling,
        "verified": verified,
        "sigma_star": hbac.entropy_production_star(spec),
    }
    if not cooling:
        print(
            "warning: no machine mode above omega0; Gaussian operations cannot "
            "cool below the bath here",
            file=sys.stderr,
        )
    return {k: [x] for k, x in row.items()}, meta, 0 if verified else 1


def cmd_optimize_spectrum(v, defaulted):
    if v["lambdas"] is None:
        if v["lambda_count"] < 1:
            raise DomainError("lambda_count must be >= 1")
        v["lambdas"] = np.geomspace(v["lambda_min"], v["lambda_max"], v["lambda_count"]).tolist()
    for key, what in (("modes", "machine size"), ("lambdas", "frequency ratio")):
        if not v[key]:
            raise DomainError(f"{key} must list at least one {what}")
    compare = v["analytic_compare"]
    rows = spectrum.sweep_sigma_vs_lambda(v["n0"], v["lambdas"], v["modes"], compare)
    compared = ["sigma_analytic_sampled"] if compare else []
    columns = {name: [r[name] for r in rows] for name in ("N", "lambda")}
    # One transpose of the g lists.  The last list, max(modes) + 1 Nones long,
    # pads it to that many gaps, and each gap drops its cell.
    gaps = itertools.zip_longest(*(r["g"] for r in rows), [None] * (max(v["modes"]) + 1))
    columns.update((f"g_{j}", list(cells[:-1])) for j, cells in enumerate(gaps))
    for name in ("sigma_star_star", "residual", *compared, "error"):
        columns[name] = [r.get(name) for r in rows]

    meta = _metadata("optimize-spectrum", v, ("n0", "modes", "lambdas", "analytic_compare"))
    return columns, meta, 0 if all(e == "" for e in columns["error"]) else 1


def _complex_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _recharger_from_json(path, n_modes: int) -> G.GaussianUnitary:
    payload = json.loads(Path(path).read_text())
    c = _complex_matrix(payload["C"])
    s = _complex_matrix(payload["S"])
    d = None
    if "d" in payload:
        d = np.array([complex(re, im) for re, im in payload["d"]])
    u = G.GaussianUnitary(C=c, S=s, d_alpha=d)
    if u.modes != n_modes:
        raise BosecoolError(
            f"recharger acts on {u.modes} modes but the machine spec needs {n_modes}"
        )
    return u


def cmd_simulate_gaussian(v, defaulted):
    spec = hbac.MachineSpec(beta=v["beta"], omega0=v["omega0"], omegas=tuple(v["omegas"]))
    n = spec.n_machine
    if v["recharger_json"]:
        recharger = _recharger_from_json(v["recharger_json"], n + 1)
        v["recharger"] = "custom-json"
    elif v["recharger"] == "swap-chain":
        recharger = hbac.build_swap_chain(spec)
    elif v["recharger"] == "identity":
        recharger = G.identity_unitary(n + 1)
    else:
        recharger = G.make_beam_splitter(0, n, n + 1, v["theta"])

    trace = hbac.run_protocol(spec, recharger, v["rounds"])
    fields = {"round": "round_index", "nth": "nth", "beta_eff": "beta_eff", "Q": "heat",
              "Sigma": "sigma"}
    columns = {name: [getattr(r, attr) for r in trace] for name, attr in fields.items()}
    keys = ("beta", "omega0", "omegas", "rounds", "recharger", "theta")
    meta = _metadata("simulate-gaussian", v, keys)
    meta["sigma_precision"] = hbac.SIGMA_PRECISION
    meta["sigma_star"] = hbac.entropy_production_star(spec)
    return columns, meta, 0


PEXCHANGE_FIELDS = ["p", "L", "t", "nbar_oracle", "nbar_closed_form", "q_oracle", "q_closed_form"]


def _pexchange_oracle(p: int, v: dict, ts: list):
    """``p``, the closed-form parameters of interaction order ``p`` at each
    duration in ``ts``, its metadata and its Fock oracle: the populations after
    one collision at each duration in collision mode, T_0 in iterate mode.  The
    Hamiltonian, its tridiagonal sector runs, lives only in this call, and so
    do the sector decompositions of its sweeps."""
    chi, nbar_s, nbar_m, tol = v["chi"], v["nbar_s"], v["nbar_m"], v["tail_tol"]
    with warnings.catch_warnings():  # first, so a bad t or chi fails before the Fock work
        warnings.simplefilter("ignore")
        prms = [CA.CollisionParams(p=p, chi=chi, t=t, nbar_s0=nbar_s, nbar_m=nbar_m) for t in ts]
    omega0 = math.log1p(1.0 / nbar_s) / v["beta"]
    omega1 = math.log1p(1.0 / nbar_m) / v["beta"]
    cut = F.FockCutoff.for_occupations(nbar_s, nbar_m, p=p, tail_tol=tol)
    h = F.build_hamiltonian(p=p, chi=chi, omega0=omega0, omega1=omega1, cutoff=cut)
    extras = {f"cutoff_p{p}": f"{cut.d_s}x{cut.d_m}"}
    if v["mode"] == "collision":
        rho0 = F.FockDensity.gibbs(nbar_s, cut.d_s, tail_tol=tol * 10)
        return p, prms, extras, F.collision_populations(rho0, nbar_m, h, ts, tail_tol=tol * 10)[0]
    tmat, extras[f"machine_tail_deficit_p{p}"] = F.transfer_matrix(h, nbar_m, ts[0], tol * 10)
    return p, prms, extras, tmat


def _pexchange_cells(ps: list, v: dict) -> list:
    """Oracle and closed-form columns, in ``PEXCHANGE_FIELDS`` order, and
    metadata of each interaction order in ``ps``.  The cells are built one
    after another; in iterate mode the cells of one cutoff then step as one
    stack."""
    collision = v["mode"] == "collision"
    ts = np.linspace(0.0, v["t_max"], v["t_points"]).tolist() if collision else [v["t"]]
    cells, out = [_pexchange_oracle(p, v, ts) for p in ps], []
    if collision:
        for p, prms, extras, pops in cells:
            n = np.arange(pops.shape[1])
            means = [float(np.sum(pop * n)) for pop in pops]
            q_oracle = [F.fano_factor(m, float(np.sum(pop * n * n))) for m, pop in zip(means, pops)]
            q_closed = []
            for t, prm in zip(ts, prms):
                try:
                    q_closed.append(CA.fano_closed_form(prm, 1) if t > 0 else 0.0)
                except ValidityError:
                    q_closed.append(math.nan)  # duration outside the short-time regime
            nbar_closed = [CA.short_time_update(prm) for prm in prms]
            columns = ([p] * len(ts), [1] * len(ts), ts, means, nbar_closed, q_oracle, q_closed)
            out.append((columns, extras))
        return out
    # The cutoff grows with p, so the cells of one cutoff are a run of ``ps``.
    for d_s, group in itertools.groupby(cells, key=lambda cell: len(cell[3])):
        group = list(group)
        state, _ = F.gibbs_probabilities(v["nbar_s"], d_s, v["tail_tol"] * 10)
        tmats, states = np.stack([cell[3] for cell in group]), [state] * len(group)
        ls, means, means2, _ = F.step_populations(tmats, states, v["rounds"], v["record_every"])
        for (p, (prm,), extras, tmat), mean, mean2 in zip(group, means, means2):
            extras[f"asymptote_oracle_p{p}"] = float(F.stationary_populations(tmat) @ np.arange(d_s))
            extras[f"asymptote_closed_form_p{p}"] = CA.asymptote(prm)
            columns = ([p] * len(ls), ls, [l * ts[0] for l in ls], mean.tolist(),
                       [CA.iterate_closed_form(prm, l) for l in ls],
                       [float(F.fano_factor(m1, m2)) for m1, m2 in zip(mean, mean2)],
                       [CA.fano_closed_form(prm, l) for l in ls])
            out.append((columns, extras))
    return out


def cmd_simulate_pexchange(v, defaulted):
    if not all(x > 0 for x in (v["nbar_s"], v["nbar_m"], v["beta"])):
        raise DomainError("nbar_s, nbar_m and beta must be positive")
    duration, count = ("t", "record_every") if v["mode"] == "iterate" else ("t_max", "t_points")
    for key in ("nbar_s", "nbar_m", "beta", "chi", duration):
        if not math.isfinite(v[key]):
            raise DomainError(f"{key} must be finite, got {v[key]}")
    if v[count] < 1:
        raise DomainError(f"{count} must be >= 1")
    if not v["p"]:
        raise DomainError("p must list at least one interaction order")
    results = _pmap(_pexchange_cells, sorted(set(v["p"])), v["jobs"], v)

    keys = [
        "p", "chi", "t", "nbar_s", "nbar_m", "beta", "rounds", "record_every", "mode", "tail_tol"
    ]
    if v["mode"] == "collision":
        keys += ["t_max", "t_points"]
    meta = _metadata("simulate-pexchange", v, keys)
    meta["assumption.chi_defaulted_to_1"] = "chi" in defaulted
    cells, extras = zip(*results)
    for cell_meta in extras:
        meta.update(cell_meta)
    # Each field's cells, p cell after p cell.
    parts = zip(PEXCHANGE_FIELDS, zip(*cells))
    return {name: list(itertools.chain(*part)) for name, part in parts}, meta, 0


def cmd_property_suite(v, defaulted):
    rows = [r.as_row() for r in suites.run_all(v["trials"], v["seed"])]
    ok = suites.corrupted_unitary_detected(v["seed"])
    rows.append(suites.SuiteResult("failure-injection", 1, 0 if ok else 1, 0.0, 0.0).as_row())
    columns = {name: [row[name] for row in rows] for name in rows[0]}
    meta = _metadata("property-suite", v, ("trials", "seed"))
    return columns, meta, 0 if all(columns["passed"]) else 1


COMMANDS = {
    "limit": (cmd_limit, "Gaussian cooling limit with swap-chain verification"),
    "optimize-spectrum": (cmd_optimize_spectrum, "minimal-dissipation machine spectra"),
    "simulate-gaussian": (cmd_simulate_gaussian, "round-by-round Gaussian cooling trace"),
    "simulate-pexchange": (
        cmd_simulate_pexchange,
        "excitation-exchange collisions: oracle vs closed form",
    ),
    "property-suite": (cmd_property_suite, "randomized invariant suites"),
}


def _add_flag(sub: argparse.ArgumentParser, key: str, kind, help_text) -> None:
    flag = "--" + key.replace("_", "-")
    if kind is bool:
        sub.add_argument(flag, action="store_true", default=None, help=help_text)
    elif isinstance(kind, tuple):
        sub.add_argument(flag, choices=kind, help=help_text)
    else:
        sub.add_argument(flag, type=kind, help=help_text)


class _CommandParser(argparse.ArgumentParser):
    """One command's parser.  Its flags are added when argparse hands it the
    command's arguments, so a run builds the flags of the invoked command
    only; help and usage errors read as if every command had its flags."""

    def __init__(self, command: str, **kwargs):
        super().__init__(**kwargs)
        self.command = command

    def parse_known_args(self, args=None, namespace=None):
        for key, kind, _, flag_help in PARAMS[self.command]:
            _add_flag(self, key, kind, flag_help)
        self.add_argument("--config", help="flat key=value config file; CLI flags override")
        self.add_argument("--out", help="output path, '-' for stdout (default)")
        self.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        for key, kind, _, flag_help in COMMON:
            _add_flag(self, key, kind, flag_help)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; a fresh one per call, never cached."""
    parser = argparse.ArgumentParser(
        prog="bosecool",
        description="Cooling limits and collision-model simulation for bosonic modes",
    )
    parser.add_argument("--version", action="version", version=f"bosecool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (_, help_text) in COMMANDS.items():
        sub.add_parser(command, command=command, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = tableio.load_config(args.config) if args.config else {}
        values, defaulted = resolve(args.command, args, config)
        columns, meta, code = COMMANDS[args.command][0](values, defaulted)
        tableio.write_table(args.out, columns, meta, args.fmt)
        return code
    except (BosecoolError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage/config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
