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

Newton runs over a cell axis: the problems of one machine size N (one per
ratio lambda in a sweep) are stacked, and the start, F and its Jacobian
bands, the certificate and the halving line search are evaluated for all
cells still iterating in one call each.  Every cell keeps its own step scale,
stop decision, iteration count (at most ``MAX_NEWTON_ITER``) and error.  Each
cell's tridiagonal step calls LAPACK ``gtsv``, the routine that
``scipy.linalg.solve_banded((1, 1), ...)`` runs, and a cell with one interior
gap divides, as ``solve_banded`` does.  The elementwise ufuncs, row maxima
and row sums give each row the bits they give a lone trajectory (the tests
check this against the per-cell solve), so every cell gets the bits of its
one-cell solve, whatever it is stacked with; ``solve_stationarity`` is the
one-cell call of the same code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


def relative_entropy_chain(nbars: np.ndarray) -> float | np.ndarray:
    """Sum of D[tau(nbar_{j-1}) || tau(nbar_j)] along the chain.

    In gaps, D[tau_a || tau_b] = ln((1 - e^{-a}) / (1 - e^{-b})) + (b - a) nbar_a:
    no difference of logs of nbar, which cancels when nbar >> 1.  A float for
    one chain, an array of row sums for a stack of chains (C, N+1).
    """
    g = gap_from_occupation(nbars)
    log1me = _log1mexp(g)
    terms = log1me[..., :-1] - log1me[..., 1:] + (g[..., 1:] - g[..., :-1]) * nbars[..., :-1]
    total = np.sum(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def _log_tanh_quarter(g) -> np.ndarray:
    """ln tanh(g/4) of each gap in the array ``g``, without underflow at either end."""
    x = 0.5 * np.asarray(g, dtype=float)  # tanh(g/4) = (1 - e^{-g/2}) / (1 + e^{-g/2})
    tail = [math.log1p(math.exp(-v)) for v in x.ravel().tolist()]
    return _log1mexp(x) - np.reshape(tail, x.shape)


def analytic_trajectory(problem, j) -> np.ndarray | float:
    """Continuum-limit optimal gap at step j (0 <= j <= N).

    Interpolates ln tanh(g/4) affinely between the endpoints; exact at j = 0
    and j = N.  Interior points satisfy the discrete stationarity recurrence
    up to O(1/N^2).  A sequence of problems that share N gives the stack of
    trajectories, one row per problem.
    """
    stacked = not isinstance(problem, SpectrumProblem)
    problems = list(problem) if stacked else [problem]
    n = problems[0].n_modes
    js = np.atleast_1d(np.asarray(j, dtype=float))
    if np.any(js < 0) or np.any(js > n):
        raise DomainError(f"step index must lie in [0, {n}]")
    ends = _log_tanh_quarter([(p.g0, p.gN) for p in problems])
    z0, zn = ends[:, :1], ends[:, 1:]
    z = (js / n) * zn + ((n - js) / n) * z0
    out = 2.0 * (np.log1p(np.exp(z)) - _log1mexp(-z))  # g = 2 ln coth(-z/2)
    if stacked:
        return out
    return out[0] if np.ndim(j) else float(out[0, 0])


def sigma_large_n(problem: SpectrumProblem) -> float:
    """Leading large-N entropy production: L^2 / (2N).

    L = ln(tanh(gN/4)/tanh(g0/4)) is the length of the cooling path in the
    local-curvature metric sqrt(nbar(nbar+1)) dg; splitting it into N equal
    steps costs N * (L/N)^2 / 2.  N * solve_stationarity(...).sigma converges
    to L^2/2 from above.
    """
    z0, zn = _log_tanh_quarter([problem.g0, problem.gN]).tolist()
    length = zn - z0
    return length**2 / (2.0 * problem.n_modes)


def _recurrence(g: np.ndarray):
    """Certificate vector F_j = (g_{j+1} - g_j) - u_j v_j / w_j over the interior.

    u_j = expm1(g_j - g_{j-1}), v_j = expm1(-g_j), w_j = expm1(-g_{j-1}) are
    returned too; they build the tridiagonal Jacobian dF/dg.  A stack of
    trajectories (C, N+1) gives one row per trajectory.
    """
    u = np.expm1(g[..., 1:-1] - g[..., :-2])
    v, w = np.expm1(-g[..., 1:-1]), np.expm1(-g[..., :-2])
    return (g[..., 2:] - g[..., 1:-1]) - u * (v / w), u, v, w


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


def _scaled_norm(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row maxima of |F_j| / min(g_{j+1}, 1): below unit gaps both terms of
    F_j scale like g_{j+1}, and max|F| alone says nothing about gaps far
    below 1e-12."""
    return np.max(np.abs(f) / np.minimum(g[:, 2:], 1.0), axis=-1, initial=0.0)


def _newton_steps(f, u, v, w) -> np.ndarray:
    """Newton step of each row: the solution of (dF/dg) step = -F.

    The Jacobian is tridiagonal with unit superdiagonal.  Each row calls
    LAPACK ``gtsv`` directly (the routine behind
    ``solve_banded((1, 1), ...)``, without its wrapper's cost); a single
    interior gap divides, as ``solve_banded`` does for a 1x1 system.
    """
    diag = -1.0 - (v - u) / w  # dF_j/dg_j
    if f.shape[1] == 1:
        return -f / diag
    # Imported on use, so that commands that never call scipy start without it.
    from scipy.linalg.lapack import dgtsv

    low = (-(v / w) * ((u - w) / w))[:, 1:]  # dF_{j+1}/dg_j
    upper = np.ones(f.shape[1] - 1)  # dF_j/dg_{j+1}
    step = np.empty_like(f)
    for i in range(f.shape[0]):
        *_, step[i], info = dgtsv(low[i], diag[i], upper, -f[i])
        if info:
            raise np.linalg.LinAlgError("singular matrix")
    return step


def _halve_until_better(g: np.ndarray, step: np.ndarray, fnorm: np.ndarray):
    """Per row, the first g + step/2^k (k = 0, 1, ...) that stays strictly
    increasing and lowers ``_scaled_norm``.

    Returns a mask of the rows that found one and, for those rows, the new
    g, its stacked ``_recurrence`` (4, rows, N-1) and its norm.  A row stops
    without one once its step no longer moves g (or is not finite).
    """
    found = np.zeros(len(g), dtype=bool)
    new_g, new_rec, new_norm = np.empty_like(g), np.empty((4,) + step.shape), np.empty(len(g))
    rows, s = np.flatnonzero(np.all(np.isfinite(step), axis=1)), 1.0
    while rows.size:
        cand = g[rows]
        cand[:, 1:-1] += s * step[rows]
        moved = ~np.all(cand == g[rows], axis=1)
        rows, cand = rows[moved], cand[moved]
        test = np.all(np.diff(cand, axis=1) > 0, axis=1)
        if test.any():
            rec = np.stack(_recurrence(cand[test]))
            norm = _scaled_norm(cand[test], rec[0])
            better = norm < fnorm[rows[test]]
            hit = rows[test][better]
            found[hit] = True
            new_g[hit], new_norm[hit] = cand[test][better], norm[better]
            new_rec[:, hit] = rec[:, better]
            test[test] = better
            rows = rows[~test]
        s *= 0.5
    return found, new_g[found], new_rec[:, found], new_norm[found]


def _newton(problems) -> list[tuple]:
    """Newton's method on F(g) = 0 for a stack of problems that share N.

    Starts from the continuum trajectories; each step is one tridiagonal
    solve per cell, halved until ``_scaled_norm`` falls with g still strictly
    increasing.  A cell stops below ``POLISH_TARGET``, once no halving helps
    or after ``MAX_NEWTON_ITER`` steps.  Returns one (g, scaled norm,
    absolute max|F|, sigma) per cell; sigma is NaN for a cell whose scaled
    norm is not below ``RESIDUAL_TARGET``.
    """
    g = analytic_trajectory(problems, np.arange(problems[0].n_modes + 1))
    g[:, 0] = [p.g0 for p in problems]
    g[:, -1] = [p.gN for p in problems]
    rec = np.stack(_recurrence(g))  # F, u, v, w
    fnorm = _scaled_norm(g, rec[0])
    live = np.flatnonzero(~(fnorm < POLISH_TARGET))
    for _ in range(MAX_NEWTON_ITER):
        if not live.size:
            break
        step = _newton_steps(*rec[:, live])
        found, g_new, rec_new, norm = _halve_until_better(g[live], step, fnorm[live])
        live = live[found]  # a cell that no halving helps is at its roundoff floor
        g[live], rec[:, live], fnorm[live] = g_new, rec_new, norm
        live = live[~(norm < POLISH_TARGET)]

    residual = np.max(np.abs(rec[0]), axis=-1, initial=0.0)
    sigma = np.full(len(g), math.nan)
    certified = fnorm < RESIDUAL_TARGET
    if certified.any():
        sigma[certified] = relative_entropy_chain(occupation_from_gap(g[certified]))
    return list(zip(g, fnorm.tolist(), residual.tolist(), sigma.tolist()))


def _certified(cell) -> SpectrumSolution:
    """The solution of one ``_newton`` cell; ConvergenceError (carrying the
    final iterate and its absolute residual) unless its scaled norm, and with
    it the absolute max|F|, is below 1e-12."""
    g, fnorm, residual, sigma = cell
    if not (fnorm < RESIDUAL_TARGET):
        raise ConvergenceError(
            f"scaled stationarity residual {fnorm:.3e} above {RESIDUAL_TARGET}",
            best=g,
            residual=residual,
        )
    return SpectrumSolution(g=g, sigma=sigma, residual=residual, method="numeric")


def solve_stationarity(problem: SpectrumProblem) -> SpectrumSolution:
    """Optimal interior gaps by Newton's method on the stationarity recurrence.

    Solves F(g) = 0 (see ``_recurrence``) for g_1 .. g_{N-1}: the Jacobian is
    tridiagonal, so each step is one banded solve, halved until
    ``_scaled_norm`` falls with g still strictly increasing.  Iteration stops
    below ``POLISH_TARGET`` or once no halving helps.  Raises ConvergenceError
    (carrying the final iterate and its absolute residual) unless the scaled
    norm, and with it the reported absolute max|F|, is below 1e-12.  This is
    the one-cell call of the stacked solve that ``sweep_sigma_vs_lambda``
    runs.
    """
    return _certified(_newton([problem])[0])


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
    from scipy.linalg import eigvalsh_tridiagonal  # imported on use, as in _newton_steps

    if solution.g.shape[0] < 3:
        return math.inf
    diag, off = hessian_interior(solution.nbars)
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


def sweep_sigma_vs_lambda(n0: float, lambdas, ns, compare: bool = False) -> list[dict]:
    """Optimal spectrum ``g`` and dissipation of each (N, lambda) cell, sorted by (N, lambda).

    Invalid endpoints raise ``DomainError`` (the first bad cell in that
    order) before any solve.  The cells of each N are solved as one stack.
    A failed solve does not raise: the row carries NaN ``sigma_star_star``
    and ``residual`` and the message in ``error``.  With ``compare`` the row
    also holds ``sigma_analytic_sampled``, the dissipation of the sampled
    continuum trajectory.
    """
    cells = [
        (lam, SpectrumProblem.from_occupation(n0, lam, n))
        for n in sorted(ns)
        for lam in sorted(lambdas)
    ]
    rows = []
    for _, group in itertools.groupby(cells, key=lambda cell: cell[1].n_modes):
        lams, problems = zip(*group)
        for lam, problem, cell in zip(lams, problems, _newton(problems)):
            row = {"N": problem.n_modes, "lambda": lam, "g0": problem.g0, "gN": problem.gN,
                   "g": []}
            try:
                sol = _certified(cell)
                row.update(sigma_star_star=sol.sigma, residual=sol.residual, g=sol.g.tolist(),
                           error="")
                if compare:
                    row["sigma_analytic_sampled"] = analytic_sampled_solution(problem).sigma
            except BosecoolError as exc:
                row.update(sigma_star_star=math.nan, residual=math.nan, error=str(exc))
            rows.append(row)
    rows.sort(key=lambda r: (r["N"], r["lambda"]))
    return rows
