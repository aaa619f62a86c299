"""Machine-spectrum optimization for minimal entropy production.

With the endpoints g_0 = beta*omega_0 and g_N = beta*omega_N fixed, the
dissipation of a full swap chain is a sum of relative entropies between
neighboring thermal states.  This module minimizes that sum over the interior
machine gaps.  Its stationarity condition is the discrete recurrence

    g_{j+1} - g_j = (e^{g_j - g_{j-1}} - 1) (1 - e^{-g_j}) / (1 - e^{-g_{j-1}})

whose residual F_j is -d(sigma)/d(g_j) divided by nbar_j (nbar_j + 1) > 0,
with nbar_j = 1/(e^{g_j} - 1).  The dissipation is strictly convex, so the
increasing root of F is the unique optimum.  Newton's method on F itself, in
gap variables with a tridiagonal Jacobian, started from the closed-form
continuum trajectory, drives F to roundoff.  The certificate,
max_j |F_j| / min(g_{j+1}, 1) < 1e-12, means the same at any gap scale; the
absolute max|F| is reported.  Gaps above ln(float max) are outside the
domain (nbar underflows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import BosecoolError, ConvergenceError, DomainError
from .gaussian import GAP_MAX

RESIDUAL_LIMIT = 1e-10  # solutions above this are rejected outright
RESIDUAL_TARGET = 1e-12  # solver must certify at least this
POLISH_TARGET = 1e-3 * RESIDUAL_TARGET  # Newton stops early below this
MAX_NEWTON_ITER = 200


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
        if self.gN > GAP_MAX:
            raise DomainError(
                f"gN = {self.gN:.6g} above ln(float max) = {GAP_MAX:.6g}: nbar_N underflows"
            )
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


def _log1mexp(x):
    """ln(1 - e^{-x}) for x > 0, through log1p once e^{-x} < 1/2: there
    1 - e^{-x} would round away the digits of e^{-x}."""
    x, ln2 = np.asarray(x, dtype=float), math.log(2.0)
    return np.where(x < ln2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-np.maximum(x, ln2))))


def relative_entropy_chain(nbars: np.ndarray) -> float:
    """Sum of D[tau(nbar_{j-1}) || tau(nbar_j)] along the chain.

    In gaps, D[tau_a || tau_b] = ln((1 - e^{-a}) / (1 - e^{-b})) + (b - a) nbar_a:
    no difference of logs of nbar, which cancels when nbar >> 1.
    """
    g = gap_from_occupation(nbars)
    log1me = _log1mexp(g)
    return float(np.sum(log1me[:-1] - log1me[1:] + (g[1:] - g[:-1]) * nbars[:-1]))


def _log_tanh_quarter(g: float) -> float:
    """ln tanh(g/4) evaluated without underflow at either end."""
    x = 0.5 * g  # tanh(g/4) = (1 - e^{-g/2}) / (1 + e^{-g/2})
    return float(_log1mexp(x)) - math.log1p(math.exp(-x))


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
    out = 2.0 * (np.log1p(np.exp(z)) - _log1mexp(-z))  # g = 2 ln coth(-z/2)
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


def _recurrence(g: np.ndarray):
    """Certificate vector F_j = (g_{j+1} - g_j) - u_j v_j / w_j over the interior.

    u_j = expm1(g_j - g_{j-1}), v_j = expm1(-g_j), w_j = expm1(-g_{j-1}) are
    returned too; they build the tridiagonal Jacobian dF/dg.
    """
    u, v, w = np.expm1(g[1:-1] - g[:-2]), np.expm1(-g[1:-1]), np.expm1(-g[:-2])
    return (g[2:] - g[1:-1]) - u * (v / w), u, v, w


def stationarity_residual(g: np.ndarray) -> float:
    """Max violation of the interior stationarity recurrence for a full trajectory."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] < 3:
        return 0.0
    return float(np.max(np.abs(_recurrence(g)[0])))


def hessian_interior(nbars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the chain dissipation's Hessian in occupation space."""
    prev, mid = nbars[:-2], nbars[1:-1]
    diag = prev / mid**2 - (prev + 1.0) / (mid + 1.0) ** 2 + 1.0 / (mid * (mid + 1.0))
    return diag, -1.0 / (mid[1:] * (mid[1:] + 1.0))


def _scaled_norm(g: np.ndarray, f: np.ndarray) -> float:
    """max_j |F_j| / min(g_{j+1}, 1): below unit gaps both terms of F_j scale
    like g_{j+1}, and max|F| alone says nothing about gaps far below 1e-12."""
    return float(np.max(np.abs(f) / np.minimum(g[2:], 1.0), initial=0.0))


def _halve_until_better(g: np.ndarray, step: np.ndarray, fnorm: float):
    """First g + step/2^k (k = 0, 1, ...) that stays strictly increasing and
    lowers ``_scaled_norm``, with its ``_recurrence``; None once the step no
    longer moves g (or is not finite)."""
    s = 1.0
    while np.all(np.isfinite(step)):
        cand = g.copy()
        cand[1:-1] += s * step
        if np.array_equal(cand, g):
            break
        if np.all(np.diff(cand) > 0):
            rec = _recurrence(cand)
            if _scaled_norm(cand, rec[0]) < fnorm:
                return cand, rec
        s *= 0.5
    return None


def solve_stationarity(problem: SpectrumProblem) -> SpectrumSolution:
    """Optimal interior gaps by Newton's method on the stationarity recurrence.

    Solves F(g) = 0 (see ``_recurrence``) for g_1 .. g_{N-1}: the Jacobian is
    tridiagonal, so each step is one banded solve, halved until
    ``_scaled_norm`` falls with g still strictly increasing.  Iteration stops
    below ``POLISH_TARGET`` or once no halving helps.  Raises ConvergenceError
    (carrying the final iterate and its absolute residual) unless the scaled
    norm, and with it the reported absolute max|F|, is below 1e-12.
    """
    n = problem.n_modes
    g = analytic_trajectory(problem, np.arange(n + 1))
    g[0], g[-1] = problem.g0, problem.gN
    f, u, v, w = _recurrence(g)
    fnorm = _scaled_norm(g, f)
    bands = np.zeros((3, n - 1))
    bands[0, 1:] = 1.0  # dF_j/dg_{j+1}
    for _ in range(MAX_NEWTON_ITER):
        if fnorm < POLISH_TARGET:
            break
        bands[1] = -1.0 - (v - u) / w  # dF_j/dg_j
        bands[2, :-1] = (-(v / w) * ((u - w) / w))[1:]  # dF_{j+1}/dg_j
        step = solve_banded((1, 1), bands, -f, check_finite=False)
        accepted = _halve_until_better(g, step, fnorm)
        if accepted is None:
            break  # no halving reduces the norm: the roundoff floor
        g, (f, u, v, w) = accepted
        fnorm = _scaled_norm(g, f)

    residual = stationarity_residual(g)
    if not (fnorm < RESIDUAL_TARGET):
        raise ConvergenceError(
            f"scaled stationarity residual {fnorm:.3e} above {RESIDUAL_TARGET}",
            best=g,
            residual=residual,
        )
    return SpectrumSolution(
        g=g,
        sigma=relative_entropy_chain(occupation_from_gap(g)),
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
    diag, off = hessian_interior(solution.nbars)
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


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
