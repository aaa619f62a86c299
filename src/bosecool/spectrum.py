"""Machine-spectrum optimization for minimal entropy production.

With the endpoints g_0 = beta*omega_0 and g_N = beta*omega_N fixed, the
dissipation of a full swap chain is a sum of relative entropies between
neighboring thermal states.  This module minimizes that sum over the interior
machine gaps.  The problem is strictly convex in the occupations
nbar_j = 1/(e^{g_j} - 1), so a damped Newton iteration started from the
closed-form continuum trajectory converges to machine precision; the
discrete stationarity recurrence

    g_{j+1} - g_j = (e^{g_j - g_{j-1}} - 1) (1 - e^{-g_j}) / (1 - e^{-g_{j-1}})

is evaluated afterwards as an independent convergence certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BosecoolError, ConvergenceError, DomainError

RESIDUAL_LIMIT = 1e-10  # solutions above this are rejected outright
RESIDUAL_TARGET = 1e-12  # solver must certify at least this
MAX_NEWTON_ITER = 200
MAX_BACKTRACK = 40


@dataclass(frozen=True)
class SpectrumProblem:
    """Fixed endpoints g0 < gN (in units of beta*omega) and machine size N."""

    g0: float
    gN: float
    n_modes: int

    def __post_init__(self):
        if self.g0 <= 0 or self.gN <= 0:
            raise DomainError("endpoints must be positive")
        if self.gN <= self.g0:
            raise DomainError("cooling requires gN > g0")
        if self.n_modes < 1:
            raise DomainError("need at least one machine mode")

    @classmethod
    def from_occupation(cls, n0: float, lam: float, n_modes: int) -> "SpectrumProblem":
        """Endpoints from the initial occupation n0 and the ratio lam = gN/g0."""
        if not (0.0 < n0 < math.inf and 1.0 < lam < math.inf):
            raise DomainError(f"need finite n0 > 0 and lam > 1, got n0={n0}, lam={lam}")
        g0 = math.log1p(1.0 / n0)
        return cls(g0=g0, gN=lam * g0, n_modes=n_modes)


@dataclass(frozen=True)
class SpectrumSolution:
    g: np.ndarray  # g_0 .. g_N, strictly increasing
    sigma: float
    residual: float
    method: str  # "numeric" | "analytic-large-N"

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if np.any(np.diff(g) <= 0):
            raise DomainError("trajectory must be strictly increasing")
        if self.sigma < 0:
            raise DomainError("entropy production cannot be negative")
        if self.method == "numeric" and not (self.residual < RESIDUAL_LIMIT):
            raise DomainError(
                f"numeric solution with residual {self.residual:.3e} is not converged"
            )
        object.__setattr__(self, "g", g)

    @property
    def nbars(self) -> np.ndarray:
        return occupation_from_gap(self.g)


def occupation_from_gap(g):
    """nbar = 1/(e^g - 1), stable for small and large g."""
    return 1.0 / np.expm1(np.asarray(g, dtype=float))


def gap_from_occupation(nbar):
    """g = ln(1 + 1/nbar)."""
    return np.log1p(1.0 / np.asarray(nbar, dtype=float))


def relative_entropy_chain(nbars: np.ndarray) -> float:
    """Sum of D[tau(nbar_{j-1}) || tau(nbar_j)] along the chain."""
    a = nbars[:-1]
    b = nbars[1:]
    terms = (a + 1.0) * (np.log1p(b) - np.log1p(a)) + a * (np.log(a) - np.log(b))
    return float(np.sum(terms))


def _log_tanh_quarter(g: float) -> float:
    """ln tanh(g/4) evaluated without underflow at either end."""
    x = 0.5 * g  # tanh(g/4) = (1 - e^{-g/2}) / (1 + e^{-g/2})
    return math.log(-math.expm1(-x)) - math.log1p(math.exp(-x))


def _gap_from_log_tanh(z: float) -> float:
    """Inverse of _log_tanh_quarter: g with ln tanh(g/4) = z (z < 0)."""
    # g = 2 ln coth(w) with w = -z/2 > 0.
    w = -0.5 * z
    return 2.0 * (math.log1p(math.exp(-2.0 * w)) - math.log(-math.expm1(-2.0 * w)))


def analytic_trajectory(problem: SpectrumProblem, j) -> np.ndarray | float:
    """Continuum-limit optimal gap at step j (0 <= j <= N).

    Interpolates ln tanh(g/4) affinely between the endpoints; exact at j = 0
    and j = N.  Interior points satisfy the discrete stationarity recurrence
    up to O(1/N^2).
    """
    n = problem.n_modes
    z0 = _log_tanh_quarter(problem.g0)
    zn = _log_tanh_quarter(problem.gN)
    js = np.atleast_1d(np.asarray(j, dtype=float))
    if np.any(js < 0) or np.any(js > n):
        raise DomainError(f"step index must lie in [0, {n}]")
    z = (js / n) * zn + ((n - js) / n) * z0
    out = np.array([_gap_from_log_tanh(v) for v in z])
    return out if np.ndim(j) else float(out[0])


def sigma_large_n(problem: SpectrumProblem) -> float:
    """Leading large-N entropy production: L^2 / (2N).

    L = ln(tanh(gN/4)/tanh(g0/4)) is the length of the cooling path in the
    local-curvature metric sqrt(nbar(nbar+1)) dg; splitting it into N equal
    steps costs N * (L/N)^2 / 2.  N * solve_stationarity(...).sigma converges
    to L^2/2 from above.
    """
    length = _log_tanh_quarter(problem.gN) - _log_tanh_quarter(problem.g0)
    return length**2 / (2.0 * problem.n_modes)


def stationarity_residual(g: np.ndarray) -> float:
    """Max violation of the interior stationarity recurrence for a full trajectory."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] < 3:
        return 0.0
    gm, gj, gp = g[:-2], g[1:-1], g[2:]
    rhs = np.expm1(gj - gm) * np.expm1(-gj) / np.expm1(-gm)
    return float(np.max(np.abs((gp - gj) - rhs)))


def _chain_gradient(nbars: np.ndarray) -> np.ndarray:
    """Gradient of the chain dissipation w.r.t. the interior occupations."""
    prev, mid, nxt = nbars[:-2], nbars[1:-1], nbars[2:]
    g_mid = np.log1p(1.0 / mid)
    g_nxt = np.log1p(1.0 / nxt)
    return (prev + 1.0) / (mid + 1.0) - prev / mid + (g_nxt - g_mid)


def hessian_interior(nbars: np.ndarray) -> np.ndarray:
    """Tridiagonal Hessian of the chain dissipation in occupation space."""
    prev, mid = nbars[:-2], nbars[1:-1]
    diag = prev / mid**2 - (prev + 1.0) / (mid + 1.0) ** 2 + 1.0 / (mid * (mid + 1.0))
    h = np.diag(diag)
    off = -1.0 / (mid[1:] * (mid[1:] + 1.0))
    h += np.diag(off, k=1) + np.diag(off, k=-1)
    return h


def solve_stationarity(problem: SpectrumProblem) -> SpectrumSolution:
    """Optimal interior spectrum by damped Newton in occupation space.

    Raises ConvergenceError (carrying the best iterate and its residual) if
    the stationarity certificate cannot be brought below 1e-12.
    """
    n = problem.n_modes
    nb0 = float(occupation_from_gap(problem.g0))
    nbN = float(occupation_from_gap(problem.gN))

    if n == 1:
        g = np.array([problem.g0, problem.gN])
        return SpectrumSolution(
            g=g,
            sigma=relative_entropy_chain(np.array([nb0, nbN])),
            residual=0.0,
            method="numeric",
        )

    g_init = analytic_trajectory(problem, np.arange(1, n))
    x = occupation_from_gap(g_init)

    def full(xv):
        return np.concatenate([[nb0], xv, [nbN]])

    def feasible(xv):
        return bool(np.all(xv > 0) and np.all(np.diff(full(xv)) < 0))

    fx = relative_entropy_chain(full(x))
    best_x, best_gnorm = x, np.max(np.abs(_chain_gradient(full(x))))
    for _ in range(MAX_NEWTON_ITER):
        grad = _chain_gradient(full(x))
        gnorm = np.max(np.abs(grad))
        if gnorm < best_gnorm:
            best_x, best_gnorm = x, gnorm
        if gnorm == 0.0:
            break
        h = hessian_interior(full(x))
        step = np.linalg.solve(h, -grad)
        if gnorm < 1e-8:
            # Endgame: objective decrements are below roundoff here, so a
            # sufficient-decrease test cannot certify anything; plain Newton
            # steps converge quadratically onto the stationary point.
            cand = x + step
            if not feasible(cand) or np.max(np.abs(_chain_gradient(full(cand)))) >= gnorm:
                break
            x = cand
            continue
        slope = float(grad @ step)
        s = 1.0
        for _ in range(MAX_BACKTRACK):
            cand = x + s * step
            if feasible(cand):
                f_cand = relative_entropy_chain(full(cand))
                if f_cand <= fx + 1e-4 * s * slope:
                    break
            s *= 0.5
        else:
            break  # no acceptable step; stop at the current iterate
        x = x + s * step
        fx = relative_entropy_chain(full(x))
    if np.max(np.abs(_chain_gradient(full(x)))) > best_gnorm:
        x = best_x

    g = gap_from_occupation(full(x))
    g[0], g[-1] = problem.g0, problem.gN
    residual = stationarity_residual(g)
    if not (residual < RESIDUAL_TARGET):
        raise ConvergenceError(
            f"stationarity residual {residual:.3e} above {RESIDUAL_TARGET}",
            best=g,
            residual=residual,
        )
    return SpectrumSolution(
        g=g,
        sigma=relative_entropy_chain(full(x)),
        residual=residual,
        method="numeric",
    )


def analytic_sampled_solution(problem: SpectrumProblem) -> SpectrumSolution:
    """Chain dissipation of the continuum trajectory sampled at N+1 points."""
    g = analytic_trajectory(problem, np.arange(problem.n_modes + 1))
    return SpectrumSolution(
        g=g,
        sigma=relative_entropy_chain(occupation_from_gap(g)),
        residual=stationarity_residual(g),
        method="analytic-large-N",
    )


def convexity_certificate(solution: SpectrumSolution) -> float:
    """Smallest Hessian eigenvalue at the solution (positive iff strictly convex)."""
    if solution.g.shape[0] < 3:
        return math.inf
    h = hessian_interior(solution.nbars)
    return float(np.linalg.eigvalsh(h)[0])


def sweep_cell(n0: float, lam: float, n_modes: int, compare: bool = False) -> dict:
    """Optimal spectrum ``g`` and dissipation of one (N, lambda) sweep cell.

    Invalid endpoints raise ``DomainError``.  A failed solve does not raise:
    the row carries NaN ``sigma_star_star`` and ``residual`` and the message
    in ``error``.  With ``compare`` the row also holds
    ``sigma_analytic_sampled``, the dissipation of the sampled continuum
    trajectory.
    """
    problem = SpectrumProblem.from_occupation(n0, lam, n_modes)
    row = {"N": n_modes, "lambda": lam, "g0": problem.g0, "gN": problem.gN, "g": []}
    try:
        sol = solve_stationarity(problem)
        row.update(sigma_star_star=sol.sigma, residual=sol.residual, g=sol.g.tolist(), error="")
        if compare:
            row["sigma_analytic_sampled"] = analytic_sampled_solution(problem).sigma
    except BosecoolError as exc:
        row.update(sigma_star_star=math.nan, residual=math.nan, error=str(exc))
    return row


def sweep_sigma_vs_lambda(n0: float, lambdas, ns) -> list[dict]:
    """Optimal dissipation for each (N, lambda) cell, sorted by (N, lambda).

    Solver failures are recorded in the row's ``error`` field (see
    :func:`sweep_cell`) and do not abort the sweep.
    """
    if n0 <= 0:
        raise DomainError("n0 must be positive")
    return [sweep_cell(n0, lam, n) for n in sorted(ns) for lam in sorted(lambdas)]
