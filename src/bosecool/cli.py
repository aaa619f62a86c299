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
  their closed-form predictions.  Its p cells run as a fork-join over
  ``--jobs`` processes (``_pmap``; default: the usable CPU count).
- ``property-suite``: randomized invariant suites with pass/fail report.

A command loads only the engines it runs: each imports them in its own code,
as ``_lapack`` loads scipy where it is called.  ``limit`` and
``simulate-gaussian`` load ``gaussian`` and ``hbac``; ``optimize-spectrum``
loads ``spectrum`` (with ``gaussian``); ``simulate-pexchange`` loads ``fock``
and ``collisions``; ``property-suite`` loads ``suites`` (with ``gaussian`` and
``hbac``).  ``import bosecool.cli`` loads numpy, ``tableio`` and ``errors``
alone.  Without written bytecode, on a 2 vCPU guest with one BLAS thread,
this took 23-38 ms off each command's fresh run (figures in README.md).

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
import os
import pickle
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, tableio
from .errors import BosecoolError, DimensionMismatchError, DomainError, ValidityError


def _float_list(text: str) -> list[float]:
    return [float(x) for x in str(text).replace(";", ",").split(",") if x != ""]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).replace(";", ",").split(",") if x != ""]


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where that is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
        ("jobs", int, _usable_cpus(),
         "worker processes for simulate-pexchange's p cells (default: the usable CPU count)"),
    ),
    "property-suite": (("trials", int, 10000, "trials per suite"),),
}
COMMON = (("seed", int, 42, "seed for randomized content (default 42)"),)


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


def _fork(fn, part: list, arg):
    """Start ``fn(part, arg)`` in a child process made by ``os.fork``.

    The child sends its pickled (True, result) or (False, exception) back
    over a pipe and leaves by ``os._exit``.  Returns the join: a call that
    reads the pipe to EOF, reaps the child and returns that pair, or (False,
    BosecoolError) if the child ended without sending it (say, by a signal).
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                outcome = True, fn(part, arg)
            except BaseException as exc:  # any failure is the caller's to report
                outcome = False, exc
            with open(write, "wb") as pipe:
                pickle.dump(outcome, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)

    def join():
        with open(read, "rb") as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code == 0:
            return pickle.loads(data)
        how = f"signal {-code}" if code < 0 else f"exit code {code}"
        return False, BosecoolError(f"worker process for {part} ended by {how}")

    return join


def _pmap(fn, items: list, jobs: int, arg) -> list:
    """The concatenated lists ``fn(part, arg)`` over min(``jobs``, len(items))
    contiguous parts of ``items``, in order, the longer parts last.

    A fork-join: the caller runs the first part itself and each other part
    runs in a child (``_fork``); the commands start no threads that a fork
    could copy mid-operation.  Every child is read and reaped before this
    returns or raises, and the first failing part, in order, raises its
    exception.  Without ``os.fork`` the items are one part, run in process.
    Where a fork fails, that part and the parts after it run in process, as
    one part, once the children are reaped.
    """
    k = max(1, min(jobs, len(items))) if hasattr(os, "fork") else 1
    parts = [items[len(items) * i // k : len(items) * (i + 1) // k] for i in range(k)]
    joins = []
    try:
        for part in parts[1:]:
            try:
                joins.append(_fork(fn, part, arg))
            except OSError:  # no process to be had, say under a process limit
                break
        first = fn(parts[0], arg)
    finally:
        shares = [join() for join in joins]
    for ok, value in shares:
        if not ok:
            raise value
    rest = list(itertools.chain(*parts[1 + len(joins) :]))
    last = fn(rest, arg) if rest else []
    return list(itertools.chain(first, *(value for _, value in shares), last))


# Each command takes the resolved values and the defaulted keys, and returns
# (columns, metadata, exit code); the columns map each field, in order, to
# its cells.


# ``limit`` verifies the cooling limit by one swap-chain round: its beta_eff
# must match the target to this relative error.
LIMIT_REL_TOL = 1e-10


def cmd_limit(v, defaulted):
    from . import hbac

    spec = hbac.MachineSpec(beta=v["beta"], omega0=v["omega0"], omegas=tuple(v["omegas"]))
    beta_star, lam = hbac.gaussian_cooling_limit(spec)

    cooling = spec.cooling_possible
    final = hbac.run_protocol(spec, hbac.build_swap_chain(spec), 1).final
    target_beta = beta_star if cooling else v["beta"]
    rel_err = abs(final.beta_eff - target_beta) / target_beta
    verified = rel_err < LIMIT_REL_TOL

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
    if not verified:
        print(
            f"error: one-round beta_eff misses its target by relative error {rel_err}, "
            f"not below {LIMIT_REL_TOL}",
            file=sys.stderr,
        )
    return {k: [x] for k, x in row.items()}, meta, 0 if verified else 1


def cmd_optimize_spectrum(v, defaulted):
    from . import spectrum

    if v["lambdas"] is None:
        if v["lambda_count"] < 1:
            raise DomainError("lambda_count must be >= 1")
        for key in ("lambda_min", "lambda_max"):
            if not (math.isfinite(v[key]) and v[key] > 0):
                raise DomainError(f"{key} must be finite and > 0, got {v[key]}")
        v["lambdas"] = np.geomspace(v["lambda_min"], v["lambda_max"], v["lambda_count"]).tolist()
    for key, what in (("modes", "machine size"), ("lambdas", "frequency ratio")):
        if not v[key]:
            raise DomainError(f"{key} must list at least one {what}")
    compare = v["analytic_compare"]
    rows = spectrum.sweep_sigma_vs_lambda(v["n0"], v["lambdas"], v["modes"], compare)
    compared = ["sigma_analytic_sampled"] if compare else []
    columns = {name: [r[name] for r in rows] for name in ("N", "lambda")}
    # The gaps g_0 ... g_N of each row as one block of max(modes) + 1 fields;
    # tableio pads the shorter rows (and a failed cell's empty g) with empty cells.
    columns["g"] = tableio.RowBlock([r["g"] for r in rows], max(v["modes"]) + 1)
    for name in ("sigma_star_star", "residual", *compared, "error"):
        columns[name] = [r.get(name) for r in rows]

    meta = _metadata("optimize-spectrum", v, ("n0", "modes", "lambdas", "analytic_compare"))
    return columns, meta, 0 if all(e == "" for e in columns["error"]) else 1


def _complex_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _recharger_from_json(path, n_modes: int):
    """The ``gaussian.GaussianUnitary`` held by the JSON file at ``path``.

    The file holds an object with the matrices C and S and, optionally, the
    vector d, each entry an [re, im] pair of numbers.  Any other shape is a
    ValueError, as are blocks of the wrong sizes and a unitary on other than
    ``n_modes`` modes.
    """
    from . import gaussian as G

    try:
        payload = json.loads(Path(path).read_text())
        c, s = _complex_matrix(payload["C"]), _complex_matrix(payload["S"])
        d = np.array([complex(re, im) for re, im in payload["d"]]) if "d" in payload else None
    except (ValueError, KeyError, TypeError, OverflowError):  # no JSON, or not of that shape
        raise ValueError(f"recharger file {path}: expected C, S and d of [re, im] pairs") from None
    try:
        u = G.GaussianUnitary(C=c, S=s, d_alpha=d)
    except DimensionMismatchError as exc:
        raise ValueError(f"recharger file {path}: {exc}") from None
    if u.modes != n_modes:
        raise ValueError(
            f"recharger file {path}: acts on {u.modes} modes but the machine spec needs {n_modes}"
        )
    return u


def cmd_simulate_gaussian(v, defaulted):
    from . import gaussian as G
    from . import hbac

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
    columns = {"round": range(1, len(trace.nth) + 1), "nth": trace.nth,
               "beta_eff": trace.beta_eff, "Q": trace.heat, "Sigma": trace.sigma}
    keys = ("beta", "omega0", "omegas", "rounds", "recharger", "theta")
    meta = _metadata("simulate-gaussian", v, keys)
    meta["sigma_precision"] = hbac.SIGMA_PRECISION
    meta["sigma_star"] = hbac.entropy_production_star(spec)
    return columns, meta, 0


PEXCHANGE_FIELDS = ["p", "L", "t", "nbar_oracle", "nbar_closed_form", "q_oracle", "q_closed_form"]


def _pexchange_cells(ps: list, v: dict) -> list:
    """Oracle and closed-form columns, in ``PEXCHANGE_FIELDS`` order, and
    metadata of each interaction order in ``ps``, one order after another.

    Each order builds its closed-form parameters at each duration, then its
    cutoff, its Hamiltonian (the tridiagonal sector runs), the system's Gibbs
    start and its Fock oracle: the populations after one collision at each
    duration in collision mode, which give its columns at once, and T_0 in
    iterate mode, where the orders of one cutoff then step as one stack.  The
    sector decompositions of an oracle's sweep are dropped once it is built.
    """
    from . import collisions as CA
    from . import fock as F

    collision = v["mode"] == "collision"
    ts = np.linspace(0.0, v["t_max"], v["t_points"]).tolist() if collision else [v["t"]]
    chi, ns, nm = v["chi"], v["nbar_s"], v["nbar_m"]
    omega0, omega1 = (math.log1p(1.0 / nbar) / v["beta"] for nbar in (ns, nm))
    # The Gibbs tail bound: Gibbs populations, the system's start and the
    # machine's, may lose up to 10 x tail_tol to truncation.
    tol, cells, out = v["tail_tol"] * 10, [], []
    for p in ps:
        with warnings.catch_warnings():  # first, so a bad t or chi fails before the Fock work
            warnings.simplefilter("ignore")
            prms = [CA.CollisionParams(p=p, chi=chi, t=t, nbar_s0=ns, nbar_m=nm) for t in ts]
        cut = F.FockCutoff.for_occupations(ns, nm, p=p, tail_tol=v["tail_tol"])
        h = F.build_hamiltonian(p=p, chi=chi, omega0=omega0, omega1=omega1, cutoff=cut)
        start, _ = F.gibbs_probabilities(ns, cut.d_s, tol)
        extras = {f"cutoff_p{p}": f"{cut.d_s}x{cut.d_m}"}
        if not collision:
            tmat, extras[f"machine_tail_deficit_p{p}"] = F.transfer_matrix(h, nm, ts[0], tol)
            cells.append((p, prms, extras, tmat, start))
            continue
        pops = F.collision_populations(start, nm, h, ts, tail_tol=tol)[0]
        n = np.arange(pops.shape[1])
        means = [float(np.sum(pop * n)) for pop in pops]
        q_oracle = list(map(F.fano_factor, means, [float(np.sum(pop * n * n)) for pop in pops]))
        q_closed = []
        for t, prm in zip(ts, prms):
            try:
                q_closed.append(CA.fano_closed_form(prm, 1) if t > 0 else 0.0)
            except ValidityError:
                q_closed.append(math.nan)  # duration outside the short-time regime
        nbar_closed = [CA.short_time_update(prm) for prm in prms]
        columns = ([p] * len(ts), [1] * len(ts), ts, means, nbar_closed, q_oracle, q_closed)
        out.append((columns, extras))
    # The cutoff grows with p, so the cells of one cutoff are a run of ``ps``.
    for d_s, group in itertools.groupby(cells, key=lambda cell: len(cell[3])):
        group = list(group)
        tmats, states = np.stack([cell[3] for cell in group]), [cell[4] for cell in group]
        ls, means, means2, _ = F.step_populations(tmats, states, v["rounds"], v["record_every"])
        for (p, (prm,), extras, tmat, _), mean, mean2 in zip(group, means, means2):
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
    iterate = v["mode"] == "iterate"
    duration, counts = ("t", ("record_every", "rounds")) if iterate else ("t_max", ("t_points",))
    for key in ("nbar_s", "nbar_m", "beta", "chi", duration):
        if not math.isfinite(v[key]):
            raise DomainError(f"{key} must be finite, got {v[key]}")
    for key in counts:
        if v[key] < 1:
            raise DomainError(f"{key} must be >= 1")
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
    from . import suites

    results = suites.run_all(v["trials"], v["seed"])
    ok = suites.corrupted_unitary_detected(v["seed"])
    results.append(suites.SuiteResult("failure-injection", 1, 0 if ok else 1, 0.0, 0.0))
    fields = ("trials", "violations", "worst_margin", "tolerance", "passed")
    columns = {"suite": [r.name for r in results]}
    columns.update((f, [getattr(r, f) for r in results]) for f in fields)
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
