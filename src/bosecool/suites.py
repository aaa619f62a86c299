"""Randomized invariant suites for the Gaussian cooling bounds.

Each suite hammers one structural inequality with seeded random inputs and
reports the worst margin seen; a margin below -tolerance is a violation.
These back the ``property-suite`` CLI command and the acceptance tests.

Draw order: a suite states one trial's random numbers as fields, each
``(shape, span)`` in draw order, with span ``(low, high)`` for a uniform
draw and None for standard normals.  Trials are drawn in chunks of at most
``CHUNK``: each field gets one ``(size, *shape)`` buffer, and trial by trial
each field's row is filled from the suite's one seeded generator with
``standard_normal(out=)`` or ``random(out=)``.  A uniform buffer is then
scaled in place to low + (high - low) u, numpy's own ``uniform`` formula,
so every number has the bits of a one-trial-at-a-time ``uniform`` or
``standard_normal`` draw.  The chunk is evaluated with one broadcast call
per operation (see ``gaussian``), and its margins are folded in draw order.
A chunk never holds more draws than the trials still missing, so the suite
stops at the same draw as a one-trial-at-a-time loop, and every
``SuiteResult`` is the same, bit for bit, whatever ``CHUNK`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as G
from . import hbac
from ._lapack import expm
from .errors import DomainError, InvalidUnitaryError

# Trials evaluated per stacked call.  It bounds the memory of a suite; the
# results do not depend on it.
CHUNK = 128


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    violations: int
    worst_margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # A suite that qualified no trial has shown nothing.
        return self.trials >= 1 and self.violations == 0


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _draw_chunk(rng: np.random.Generator, fields, size: int) -> list[np.ndarray]:
    """``size`` trials of ``fields``, one ``(size, *shape)`` buffer per field."""
    bufs = [np.empty((size, *shape)) for shape, _ in fields]
    fills = [rng.standard_normal if span is None else rng.random for _, span in fields]
    for rows in zip(*bufs):
        for fill, row in zip(fills, rows):
            fill(out=row)
    for buf, (_, span) in zip(bufs, fields):
        if span is not None:
            low, high = span
            buf *= high - low
            buf += low
    return bufs


def _run_suite(name: str, trials: int, seed: int, tol: float, fields, margins) -> SuiteResult:
    """Fold margins over ``trials`` qualifying draws from a seeded rng.

    ``fields`` are one trial's random numbers, ``(shape, span)`` in draw
    order (see the module docstring).  ``margins`` takes one buffer per
    field, stacked over up to CHUNK trials, and returns the trials' margins
    in draw order, None for a draw that does not qualify.  At most
    50 * trials draws are made.  A margin below -tol is a violation.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = _rng(seed)
    worst = math.inf
    violations = qualified = drawn = 0
    while qualified < trials and drawn < 50 * trials:
        size = min(CHUNK, trials - qualified, 50 * trials - drawn)
        drawn += size
        for m in margins(*_draw_chunk(rng, fields, size)):
            if m is None:
                continue
            qualified += 1
            worst = min(worst, m)
            if m < -tol:
                violations += 1
    return SuiteResult(
        name=name, trials=qualified, violations=violations, worst_margin=float(worst), tolerance=tol
    )


def min_thermal_excitation_suite(
    trials: int, seed: int, modes: int = 4, max_squeeze: float = 1.5
) -> SuiteResult:
    """Mode-1 thermal excitation after any joint unitary never beats the best input."""

    fields = (((modes,), (0.0, 3.0)), *G.gaussian_unitary_fields(modes, max_squeeze))

    def margins(nbars, *unitary_draws):
        u = G.gaussian_unitary_from_draws(*unitary_draws)
        out = G.apply_unitary(G.product_thermal(nbars), u)
        nth_out = G.thermal_excitation(G.reduce(out, [0]))
        return (nth_out - np.min(nbars, axis=-1)).tolist()

    return _run_suite("min-thermal-excitation", trials, seed, 1e-9, fields, margins)


def eigenvalue_domination_suite(trials: int, seed: int, dim: int = 4) -> SuiteResult:
    """Sorted spectrum of L O L^dag dominates that of O when all sing(L) >= 1."""

    # Real and imaginary parts of z, singular value excesses, parts of w.
    fields = (((2, dim, dim), None), ((dim,), (0.0, 2.0)), ((2, dim, dim), None))

    def margins(z_parts, excess, w_parts):
        z = z_parts[:, 0] + 1j * z_parts[:, 1]
        w = w_parts[:, 0] + 1j * w_parts[:, 1]
        u, _, vh = np.linalg.svd(z)
        l = u @ ((1.0 + excess)[..., None, :] * np.eye(dim)) @ vh
        o = w @ w.conj().swapaxes(-1, -2)
        ev_in = np.sort(np.linalg.eigvalsh(o), axis=-1)
        ev_out = np.sort(np.linalg.eigvalsh(l @ o @ l.conj().swapaxes(-1, -2)), axis=-1)
        return np.min(ev_out - ev_in, axis=-1).tolist()

    return _run_suite("eigenvalue-domination", trials, seed, 1e-10, fields, margins)


def excitation_majorization_suite(
    trials: int, seed: int, modes: int = 4, max_squeeze: float = 1.5
) -> SuiteResult:
    """Every k smallest output occupations outweigh the k smallest inputs."""

    fields = (((modes,), (0.05, 3.0)), *G.gaussian_unitary_fields(modes, max_squeeze))

    def margins(nbars, *unitary_draws):
        u = G.gaussian_unitary_from_draws(*unitary_draws)
        out = np.sort(G.apply_unitary(G.product_thermal(nbars), u).mean_excitations, axis=-1)
        asc_in = np.sort(nbars, axis=-1)
        return np.min(np.cumsum(out, axis=-1) - np.cumsum(asc_in, axis=-1), axis=-1).tolist()

    return _run_suite("excitation-majorization", trials, seed, 1e-9, fields, margins)


def near_optimal_dissipation_suite(
    trials: int, seed: int, eps: float = 1e-4
) -> SuiteResult:
    """Rechargers that still reach the cooling limit dissipate at least sigma*.

    Candidates perturb the optimal swap chain with weak random passives,
    P_a . chain . P_b with P_a drawn first; only those landing within 1e-6
    of the limit occupation count as trials.  Each is scored by one round
    from the initial system state, as ``hbac.run_protocol`` books it, but
    through the stacked joint moments (``apply_unitary`` over a chunk).
    """
    spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.6, 2.3))
    chain = hbac.build_swap_chain(spec)
    sigma_star = hbac.entropy_production_star(spec)
    floor = spec.nbar(spec.omegas[-1])
    n = spec.n_machine + 1
    system = spec.initial_system()
    start = G.tensor(system, spec.machine_state())
    machine_nbars = spec.machine_nbars
    omegas = np.array(spec.omegas)
    s_sys_in = G.vn_entropy_single_mode(G.thermal_excitation(system))
    fields = (((2, n, n), None),) * 2

    def margins(x_a, x_b):
        u = G.compose(_small_passive(x_a, eps), G.compose(chain, _small_passive(x_b, eps)))
        joint = G.apply_unitary(start, u)
        nths = G.thermal_excitation(G.reduce(joint, [0])).tolist()
        # The heats Q = sum_k omega_k gain_k; vecdot gives each row np.dot's bits.
        heats = np.vecdot(omegas, joint.mean_excitations[..., 1:] - machine_nbars).tolist()
        out = []
        for nth, heat in zip(nths, heats):
            if abs(nth - floor) >= 1e-6:
                out.append(None)
                continue
            # Sigma = beta Q - (S_in - S_out).
            s_drop = s_sys_in - G.vn_entropy_single_mode(nth)
            out.append(spec.beta * heat - s_drop - sigma_star)
        return out

    return _run_suite("near-optimal-dissipation", trials, seed, 1e-6, fields, margins)


def _small_passive(x: np.ndarray, eps: float) -> G.GaussianUnitary:
    """Weak random passives exp(i eps h) from standard normals x (T, 2, j, j).

    h is the Hermitian part of x_0 + i x_1 scaled to unit Frobenius norm,
    so exp(i eps h) is unitary by construction and assembled unchecked.
    """
    a = x[:, 0] + 1j * x[:, 1]
    h = (a + a.conj().swapaxes(-1, -2)) / 2
    # np.linalg.norm's Frobenius norm, re.re + im.im of the flattened matrix,
    # as one stacked matmul: the same dot per matrix (einsum sums in another order).
    flat = h.reshape(len(h), 1, -1)
    sq = flat.real @ flat.real.swapaxes(-1, -2) + flat.imag @ flat.imag.swapaxes(-1, -2)
    h /= np.sqrt(sq)
    # scipy.linalg.expm's bits, from its compiled kernels without the scipy.linalg package.
    return G._passive(expm(1j * eps * h))


def corrupted_unitary_detected(seed: int = 0, size: float = 1e-3) -> bool:
    """Failure injection: a symplectic-constraint violation must be rejected."""
    u = G.random_gaussian_unitary(3, _rng(seed))
    c_bad = u.C.copy()
    c_bad[0, 1] += size
    try:
        G.GaussianUnitary(C=c_bad, S=u.S, d_alpha=u.d_alpha)
    except InvalidUnitaryError:
        return True
    return False


def run_all(trials: int, seed: int) -> list[SuiteResult]:
    """All suites with per-suite derived seeds (stable under reordering)."""
    return [
        min_thermal_excitation_suite(trials, seed),
        eigenvalue_domination_suite(trials, seed + 1),
        excitation_majorization_suite(trials, seed + 2),
        near_optimal_dissipation_suite(min(trials, 500), seed + 3),
    ]
