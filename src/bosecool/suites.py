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
        return self.violations == 0

    def as_row(self) -> dict:
        return {
            "suite": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _check_trials(trials: int) -> None:
    # A suite that ran nothing would report a pass with worst_margin = inf.
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")


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
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = math.inf
    violations = 0
    for _ in range(trials):
        nbars = rng.uniform(0.0, 3.0, size=modes)
        if gibbs_inputs:
            state = G.product_thermal(nbars)
        else:
            parts = []
            for nb in nbars:
                s = G.product_thermal([nb])
                s = G.apply_unitary(s, G.make_squeezer([rng.uniform(0, 1.0)]))
                s = G.apply_unitary(
                    s,
                    G.make_displacement([rng.standard_normal() + 1j * rng.standard_normal()]),
                )
                parts.append(s)
            state = parts[0]
            for s in parts[1:]:
                state = G.tensor(state, s)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        nth_out = G.thermal_excitation(G.reduce(G.apply_unitary(state, u), [0]))
        margin = nth_out - float(np.min(nbars))
        worst = min(worst, margin)
        if margin < -tol:
            violations += 1
    return SuiteResult(
        name="min-thermal-excitation",
        trials=trials,
        violations=violations,
        worst_margin=float(worst),
        tolerance=tol,
    )


def eigenvalue_domination_suite(trials: int, seed: int, dim: int = 4) -> SuiteResult:
    """Sorted spectrum of L O L^dag dominates that of O when all sing(L) >= 1."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst = math.inf
    violations = 0
    for _ in range(trials):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _, vh = np.linalg.svd(z)
        l = u @ np.diag(1.0 + rng.uniform(0.0, 2.0, dim)) @ vh
        w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        o = w @ w.conj().T
        ev_in = np.sort(np.linalg.eigvalsh(o))
        ev_out = np.sort(np.linalg.eigvalsh(l @ o @ l.conj().T))
        margin = float(np.min(ev_out - ev_in))
        worst = min(worst, margin)
        if margin < -tol:
            violations += 1
    return SuiteResult(
        name="eigenvalue-domination",
        trials=trials,
        violations=violations,
        worst_margin=float(worst),
        tolerance=tol,
    )


def excitation_majorization_suite(
    trials: int, seed: int, modes: int = 4, max_squeeze: float = 1.5
) -> SuiteResult:
    """Every k smallest output occupations outweigh the k smallest inputs."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = math.inf
    violations = 0
    for _ in range(trials):
        nbars = rng.uniform(0.05, 3.0, size=modes)
        state = G.product_thermal(nbars)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        out = np.sort(G.apply_unitary(state, u).mean_excitations)
        asc_in = np.sort(nbars)
        margin = float(np.min(np.cumsum(out) - np.cumsum(asc_in)))
        worst = min(worst, margin)
        if margin < -tol:
            violations += 1
    return SuiteResult(
        name="excitation-majorization",
        trials=trials,
        violations=violations,
        worst_margin=float(worst),
        tolerance=tol,
    )


def near_optimal_dissipation_suite(
    trials: int, seed: int, eps: float = 1e-4
) -> SuiteResult:
    """Rechargers that still reach the cooling limit dissipate at least sigma*.

    Candidates perturb the optimal swap chain with weak random passives; only
    those landing within 1e-6 of the limit occupation count as trials.
    """
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    tol = 1e-6
    worst = math.inf
    violations = 0
    qualified = 0
    spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.6, 2.3))
    chain = hbac.build_swap_chain(spec)
    sigma_star = hbac.entropy_production_star(spec)
    floor = spec.nbar(spec.omegas[-1])
    n = spec.n_machine + 1
    attempts = 0
    while qualified < trials and attempts < 50 * trials:
        attempts += 1
        u = G.compose(
            _small_passive(n, rng, eps), G.compose(chain.unitary, _small_passive(n, rng, eps))
        )
        trace = hbac.run_protocol(spec, u, 1)
        if abs(trace.final.nth - floor) >= 1e-6:
            continue
        qualified += 1
        margin = trace.final.sigma - sigma_star
        worst = min(worst, margin)
        if margin < -tol:
            violations += 1
    return SuiteResult(
        name="near-optimal-dissipation",
        trials=qualified,
        violations=violations,
        worst_margin=float(worst),
        tolerance=tol,
    )


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
