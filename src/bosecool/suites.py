"""Randomized invariant suites for the Gaussian cooling bounds.

Each suite hammers one structural inequality with seeded random inputs and
reports the worst margin seen; a margin below -tolerance is a violation.
These back the ``property-suite`` CLI command and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import gaussian as G
from . import hbac
from .errors import DomainError, InvalidUnitaryError


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

    def as_row(self) -> dict:
        return {
            "suite": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _run_suite(name: str, trials: int, seed: int, tol: float, margin) -> SuiteResult:
    """Fold ``margin(rng)`` over ``trials`` qualifying draws from a seeded rng.

    ``margin`` returns None for a draw that does not qualify; at most
    50 * trials draws are made.  A margin below -tol is a violation.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = math.inf
    violations = qualified = 0
    for _ in range(50 * trials):
        m = margin(rng)
        if m is None:
            continue
        qualified += 1
        worst = min(worst, m)
        if m < -tol:
            violations += 1
        if qualified == trials:
            break
    return SuiteResult(
        name=name, trials=qualified, violations=violations, worst_margin=float(worst), tolerance=tol
    )


def min_thermal_excitation_suite(
    trials: int,
    seed: int,
    modes: int = 4,
    max_squeeze: float = 1.5,
    gibbs_inputs: bool = True,
) -> SuiteResult:
    """Mode-1 thermal excitation after any joint unitary never beats the best input.

    With ``gibbs_inputs`` the product state is thermal per mode; otherwise each
    mode is additionally squeezed and displaced (which must not matter).
    """

    def margin(rng):
        nbars = rng.uniform(0.0, 3.0, size=modes)
        if gibbs_inputs:
            state = G.product_thermal(nbars)
        else:
            state = None
            for nb in nbars:
                s = G.product_thermal([nb])
                s = G.apply_unitary(s, G.make_squeezer([rng.uniform(0, 1.0)]))
                s = G.apply_unitary(
                    s,
                    G.make_displacement([rng.standard_normal() + 1j * rng.standard_normal()]),
                )
                state = s if state is None else G.tensor(state, s)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        nth_out = G.thermal_excitation(G.reduce(G.apply_unitary(state, u), [0]))
        return nth_out - float(np.min(nbars))

    return _run_suite("min-thermal-excitation", trials, seed, 1e-9, margin)


def eigenvalue_domination_suite(trials: int, seed: int, dim: int = 4) -> SuiteResult:
    """Sorted spectrum of L O L^dag dominates that of O when all sing(L) >= 1."""

    def margin(rng):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _, vh = np.linalg.svd(z)
        l = u @ np.diag(1.0 + rng.uniform(0.0, 2.0, dim)) @ vh
        w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        o = w @ w.conj().T
        ev_in = np.sort(np.linalg.eigvalsh(o))
        ev_out = np.sort(np.linalg.eigvalsh(l @ o @ l.conj().T))
        return float(np.min(ev_out - ev_in))

    return _run_suite("eigenvalue-domination", trials, seed, 1e-10, margin)


def excitation_majorization_suite(
    trials: int, seed: int, modes: int = 4, max_squeeze: float = 1.5
) -> SuiteResult:
    """Every k smallest output occupations outweigh the k smallest inputs."""

    def margin(rng):
        nbars = rng.uniform(0.05, 3.0, size=modes)
        state = G.product_thermal(nbars)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        out = np.sort(G.apply_unitary(state, u).mean_excitations)
        asc_in = np.sort(nbars)
        return float(np.min(np.cumsum(out) - np.cumsum(asc_in)))

    return _run_suite("excitation-majorization", trials, seed, 1e-9, margin)


def near_optimal_dissipation_suite(
    trials: int, seed: int, eps: float = 1e-4
) -> SuiteResult:
    """Rechargers that still reach the cooling limit dissipate at least sigma*.

    Candidates perturb the optimal swap chain with weak random passives; only
    those landing within 1e-6 of the limit occupation count as trials.
    """
    spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.6, 2.3))
    chain = hbac.build_swap_chain(spec)
    sigma_star = hbac.entropy_production_star(spec)
    floor = spec.nbar(spec.omegas[-1])
    n = spec.n_machine + 1

    def margin(rng):
        u = G.compose(_small_passive(n, rng, eps), G.compose(chain, _small_passive(n, rng, eps)))
        final = hbac.run_protocol(spec, u, 1).final
        if abs(final.nth - floor) >= 1e-6:
            return None
        return final.sigma - sigma_star

    return _run_suite("near-optimal-dissipation", trials, seed, 1e-6, margin)


def _small_passive(j: int, rng: np.random.Generator, eps: float) -> G.GaussianUnitary:
    a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    h = (a + a.conj().T) / 2
    h /= np.linalg.norm(h)
    return G.make_passive(expm(1j * eps * h))


def corrupted_unitary_detected(seed: int = 0, size: float = 1e-3) -> bool:
    """Failure injection: a symplectic-constraint violation must be rejected."""
    rng = np.random.default_rng(seed)
    u = G.random_gaussian_unitary(3, rng)
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
