"""Spans around calls into bosecool's modules, recorded from outside the program.

The tracer replaces module attributes (and, for classes, ``__init__``) with
timing wrappers.  Library code looks its callees up through module globals or
module aliases at call time, so the wrappers see calls made between modules
and inside them.  Each span records calls, inclusive seconds, self seconds
(inclusive minus the time of spans opened while it ran) and raised
exceptions.  A name that no longer exists is reported as absent; it never
raises, so a later refactor that deletes or renames a function stays
measurable.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

# Wrapped names per module.  Those that appear in PER_LAYER are reported; the
# rest are wrapped so that their time is charged to their own module's
# self time instead of to whichever caller sits above them.
TRACED = {
    "gaussian": (
        "GaussianState", "GaussianUnitary", "apply_unitary", "compose",
        "random_gaussian_unitary", "tensor", "reduce", "thermal_excitation",
        "product_thermal", "gibbs_state", "identity_unitary", "make_swap",
        "make_passive", "haar_unitary", "effective_beta", "vn_entropy_single_mode",
    ),
    "hbac": (
        "run_protocol", "symplectic_nbars", "MachineSpec", "build_swap_chain",
        "gaussian_cooling_limit", "state_entropy", "entropy_production_star",
        "random_spec",
    ),
    "suites": (
        "min_thermal_excitation_suite", "eigenvalue_domination_suite",
        "excitation_majorization_suite", "near_optimal_dissipation_suite",
        "corrupted_unitary_detected",
    ),
    "spectrum": (
        "solve_stationarity", "hessian_interior", "relative_entropy_chain",
        "analytic_trajectory", "SpectrumProblem", "analytic_sampled_solution",
        "stationarity_residual",
    ),
    "fock": (
        "build_hamiltonian", "transfer_matrix", "iterate_collisions",
        "stationary_populations", "single_collision", "FockDensity",
        "evolve_unitary", "FockCutoff", "mean_excitation", "second_moment",
    ),
    "collisions": (
        "CollisionParams", "iterate_closed_form", "fano_closed_form",
        "short_time_update", "asymptote",
    ),
    "tableio": ("write_table",),
}

MODULES = tuple(TRACED) + ("cli",)
SUITES = TRACED["suites"][:4]

# Reported per-layer metrics, in report order, with their units.
PER_LAYER = (
    [("gaussian.self_s", "s")]
    + [
        (f"gaussian.{n}.{f}", u)
        for n in ("GaussianState", "GaussianUnitary", "apply_unitary", "compose",
                  "random_gaussian_unitary")
        for f, u in (("calls", "count"), ("s", "s"))
    ]
    + [
        ("hbac.self_s", "s"),
        ("hbac.run_protocol.calls", "count"),
        ("hbac.run_protocol.s", "s"),
        ("hbac.run_protocol.rounds", "count"),
        ("hbac.symplectic_nbars.calls", "count"),
        ("hbac.symplectic_nbars.s", "s"),
        ("suites.self_s", "s"),
    ]
    + [(f"suites.{n}.s", "s") for n in SUITES]
    + [
        ("spectrum.self_s", "s"),
        ("spectrum.solve_stationarity.calls", "count"),
        ("spectrum.solve_stationarity.s", "s"),
        ("spectrum.solve_stationarity.self_s", "s"),
        ("spectrum.solve_stationarity.errors", "count"),
        ("spectrum.cell.p50_ms", "ms"),
        ("spectrum.cell.p95_ms", "ms"),
        ("spectrum.hessian_interior.calls", "count"),
        ("spectrum.hessian_interior.s", "s"),
        ("spectrum.relative_entropy_chain.calls", "count"),
        ("spectrum.analytic_trajectory.s", "s"),
        ("spectrum.cells_ok_frac", "1"),
        ("fock.self_s", "s"),
        ("fock.build_hamiltonian.calls", "count"),
        ("fock.build_hamiltonian.s", "s"),
        ("fock.joint_dim", "count"),
        ("fock.transfer_matrix.calls", "count"),
        ("fock.transfer_matrix.s", "s"),
        ("fock.iterate_collisions.calls", "count"),
        ("fock.iterate_collisions.s", "s"),
        ("fock.iterate_collisions.rounds", "count"),
        ("fock.stationary_populations.calls", "count"),
        ("fock.stationary_populations.s", "s"),
        ("fock.single_collision.calls", "count"),
        ("fock.single_collision.s", "s"),
        ("fock.FockDensity.calls", "count"),
        ("fock.FockDensity.s", "s"),
        ("fock.evolve_unitary.calls", "count"),
        ("fock.dense_bytes", "B"),
        ("collisions.self_s", "s"),
        ("collisions.CollisionParams.calls", "count"),
        ("collisions.iterate_closed_form.calls", "count"),
        ("collisions.fano_closed_form.calls", "count"),
        ("tableio.write_table.s", "s"),
        ("tableio.bytes", "B"),
        ("cli.self_s", "s"),
        ("trace_overhead_frac", "1"),
    ]
)

# Spans whose individual durations are kept (for percentiles).
KEEP_DURATIONS = ("spectrum.solve_stationarity",)

# Exact counts: identical across passes of one run and across runs.
EXACT_UNITS = ("count", "B")


def _bound_arg(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name, 0)
    except (TypeError, ValueError):
        return 0


def _rounds(stat, fn, args, kwargs, out):
    stat["rounds"] = stat.get("rounds", 0) + int(_bound_arg(fn, args, kwargs, "rounds"))


def _joint_dim(stat, fn, args, kwargs, out):
    stat["joint_dim"] = max(stat.get("joint_dim", 0), int(getattr(out, "dim", 0)))


def _dense_bytes(stat, fn, args, kwargs, out):
    stat["dense_bytes"] = stat.get("dense_bytes", 0) + 16 * int(out.shape[0]) ** 2


# Counters beyond calls/time, read from a successful call's arguments or result.
EXTRAS = {
    "hbac.run_protocol": _rounds,
    "fock.iterate_collisions": _rounds,
    "fock.build_hamiltonian": _joint_dim,
    "fock.evolve_unitary": _dense_bytes,
}


class Tracer:
    """Span recorder; ``install`` wraps the TRACED names of bosecool."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.durations: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._undo: list = []

    def reset(self) -> None:
        self.stats = {}
        self.durations = {}

    def wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        def span(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                st = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
                st["calls"] += 1
                st["s"] += elapsed
                st["self_s"] += elapsed - frame[0]
                if name in KEEP_DURATIONS:
                    self.durations.setdefault(name, []).append(elapsed)
                if not ok:
                    st["errors"] += 1
                elif extra is not None:
                    extra(st, fn, args, kwargs, out)

        span.__wrapped__ = fn
        return span

    def resolve(self) -> tuple[list, list]:
        """(found, absent): found holds (qualified name, owner, attribute, object)."""
        found, absent = [], []
        for mod_name, names in TRACED.items():
            try:
                mod = importlib.import_module(f"bosecool.{mod_name}")
            except ImportError:
                absent.extend(f"{mod_name}.{n}" for n in names)
                continue
            for n in names:
                obj = getattr(mod, n, None)
                if inspect.isclass(obj):
                    found.append((f"{mod_name}.{n}", obj, "__init__", obj.__dict__.get("__init__")))
                elif callable(obj):
                    found.append((f"{mod_name}.{n}", mod, n, obj))
                else:
                    absent.append(f"{mod_name}.{n}")
        return found, absent

    def install(self) -> None:
        found, self.absent = self.resolve()
        for qual, owner, attr, original in found:
            target = getattr(owner, attr)
            setattr(owner, attr, self.wrap(qual, target))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)  # the class inherited __init__
            else:
                setattr(owner, attr, original)
        self._undo = []

    def snapshot(self) -> dict:
        """Per-name stats of the current pass, plus per-module self time."""
        snap = {name: dict(st) for name, st in self.stats.items()}
        for mod in MODULES:
            snap[f"{mod}.self_s"] = sum(
                st["self_s"] for name, st in self.stats.items() if name.split(".")[0] == mod
            )
        return snap


def _field(snap: dict, metric: str):
    if metric in snap:  # module self time
        return snap[metric]
    if metric == "fock.joint_dim":
        return snap.get("fock.build_hamiltonian", {}).get("joint_dim", 0)
    if metric == "fock.dense_bytes":
        return snap.get("fock.evolve_unitary", {}).get("dense_bytes", 0)
    if metric == "spectrum.cells_ok_frac":
        st = snap.get("spectrum.solve_stationarity", {"calls": 0, "errors": 0})
        return 1.0 - st["errors"] / st["calls"] if st["calls"] else 1.0
    name, _, field = metric.rpartition(".")
    return snap.get(name, {}).get(field, 0)


def layer_metrics(snaps: list, cell_durations: list, tableio_bytes: int,
                  untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics from per-pass snapshots of one traced run.

    Exact counts come from the first pass (``counts_stable`` in the run
    detail says whether every pass agreed); times are medians over passes.
    """
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "trace_overhead_frac":
            value = (traced_wall - untraced_wall) / untraced_wall
        elif metric == "tableio.bytes":
            value = tableio_bytes
        elif metric.startswith("spectrum.cell.p"):
            q = 50 if "p50" in metric else 95
            value = _percentile(cell_durations, q) * 1e3
        elif unit in EXACT_UNITS:
            value = _field(snaps[0], metric)
        else:
            value = statistics.median(_field(s, metric) for s in snaps)
        out[metric] = {"value": value, "unit": unit}
    return out


def counts_stable(snaps: list) -> bool:
    exact = [m for m, u in PER_LAYER if u in EXACT_UNITS and m != "tableio.bytes"]
    first = [_field(snaps[0], m) for m in exact]
    return all([_field(s, m) for m in exact] == first for s in snaps[1:])


def _percentile(values: list, q: int) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]
