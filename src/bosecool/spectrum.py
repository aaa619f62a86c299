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

Newton runs over a ragged cell axis: every cell of a run, whatever its N,
lies end to end in one flat trajectory array with one start offset per
cell.  The continuum start is one elementwise evaluation over the whole
axis; F, its Jacobian bands and the halving candidates are evaluated on
interior-index arrays over all cells still iterating; per-cell maxima and
the line search's tests are ``reduceat`` over each cell's segment.  Every
cell keeps its own step scale, stop decision, iteration count (at most
``MAX_NEWTON_ITER``) and error; a cell with N = 1 has no interior and never
iterates.  Each cell's tridiagonal step calls LAPACK ``gtsv`` on its own
slice, the routine that ``scipy.linalg.solve_banded((1, 1), ...)`` runs,
taken from scipy's compiled LAPACK module, which ``_lapack`` loads without
the ``scipy.linalg`` package; a cell with one interior gap divides, as
``solve_banded`` does.  sigma is one stacked ``relative_entropy_chain`` (row
sums) per distinct N; the chain, like the gap-occupation maps, is
``gaussian``'s, imported here.
Elementwise ufuncs, maxima and row sums give each cell the bits they give a
lone trajectory (the tests check this against the per-cell solve), so every
cell gets the bits of its one-cell solve, whatever it is stacked with;
``solve_stationarity`` is the one-cell call of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import flapack
from .errors import BosecoolError, ConvergenceError, DomainError
from .gaussian import GAP_MAX, _log1mexp, occupation_from_gap, relative_entropy_chain

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


def _log_tanh_quarter(g) -> np.ndarray:
    """ln tanh(g/4) of each gap in the array ``g``, without underflow at either end."""
    x = 0.5 * np.asarray(g, dtype=float)  # tanh(g/4) = (1 - e^{-g/2}) / (1 + e^{-g/2})
    tail = [math.log1p(math.exp(-v)) for v in x.ravel().tolist()]
    return _log1mexp(x) - np.reshape(tail, x.shape)


def _continuum(z0, zn, j, n):
    """Continuum-limit gap at step j of n, from the endpoints' ln tanh(g/4)
    z0 and zn; elementwise over arrays."""
    z = (j / n) * zn + ((n - j) / n) * z0
    return 2.0 * (np.log1p(np.exp(z)) - _log1mexp(-z))  # g = 2 ln coth(-z/2)


def analytic_trajectory(problem: SpectrumProblem, j) -> np.ndarray | float:
    """Continuum-limit optimal gap at step j (0 <= j <= N).

    Interpolates ln tanh(g/4) affinely between the endpoints; exact at j = 0
    and j = N.  Interior points satisfy the discrete stationarity recurrence
    up to O(1/N^2).
    """
    n = problem.n_modes
    js = np.atleast_1d(np.asarray(j, dtype=float))
    if np.any(js < 0) or np.any(js > n):
        raise DomainError(f"step index must lie in [0, {n}]")
    z0, zn = _log_tanh_quarter([problem.g0, problem.gN]).tolist()
    out = _continuum(z0, zn, js, n)
    return out if np.ndim(j) else float(out[0])


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


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0 and the running totals of ``counts``: segment c spans [out[c], out[c+1])."""
    return np.concatenate(([0], np.cumsum(counts)))


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[c], first[c] + 1, ..., first[c] + counts[c] - 1 for each c, end to end."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(first - ends + counts, counts)


def _segment_max(x: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Maximum of ``x`` over each segment [seg[c], seg[c+1]); 0 for an empty one."""
    out = np.zeros(len(seg) - 1)
    full = np.flatnonzero(np.diff(seg))
    if full.size:
        out[full] = np.maximum.reduceat(x, seg[full])
    return out


def _recurrence(g: np.ndarray, i: np.ndarray):
    """Certificate vector F_j = (g_{j+1} - g_j) - u_j v_j / w_j at the interior
    indices ``i`` of the trajectories laid end to end in ``g``.

    u_j = expm1(g_j - g_{j-1}), v_j = expm1(-g_j), w_j = expm1(-g_{j-1}) are
    returned too; they build the tridiagonal Jacobian dF/dg.
    """
    gj, prev = g[i], g[i - 1]
    u = np.expm1(gj - prev)
    v, w = np.expm1(-gj), np.expm1(-prev)
    return (g[i + 1] - gj) - u * (v / w), u, v, w


def stationarity_residual(g: np.ndarray) -> float:
    """Max violation of the interior stationarity recurrence for a full trajectory."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] < 3:
        return 0.0
    return float(np.max(np.abs(_recurrence(g, np.arange(1, g.shape[0] - 1))[0])))


def hessian_interior(nbars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the chain dissipation's Hessian in occupation space."""
    prev, mid = nbars[:-2], nbars[1:-1]
    diag = prev / mid**2 - (prev + 1.0) / (mid + 1.0) ** 2 + 1.0 / (mid * (mid + 1.0))
    return diag, -1.0 / (mid[1:] * (mid[1:] + 1.0))


def _scaled_norm(g: np.ndarray, i: np.ndarray, f: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Per cell, max |F_j| / min(g_{j+1}, 1) over its interior indices
    i[seg[c]:seg[c+1]] (0 without one): below unit gaps both terms of F_j
    scale like g_{j+1}, and max|F| alone says nothing about gaps far below
    1e-12."""
    return _segment_max(np.abs(f) / np.minimum(g[i + 1], 1.0), seg)


def _newton_steps(f, u, v, w, seg) -> np.ndarray:
    """Newton step of each cell: the solution of (dF/dg) step = -F.

    The cells' interior values run end to end, cell c over seg[c]:seg[c+1].
    The Jacobian is tridiagonal with unit superdiagonal.  Each cell calls
    LAPACK ``gtsv`` on its own slice (the routine behind
    ``solve_banded((1, 1), ...)``, without its wrapper's cost); a single
    interior gap divides, as ``solve_banded`` does for a 1x1 system.
    """
    diag = -1.0 - (v - u) / w  # dF_j/dg_j
    size = np.diff(seg)
    step = np.empty_like(f)
    one = seg[:-1][size == 1]
    step[one] = -f[one] / diag[one]
    big = size > 1
    if not big.any():
        return step
    # Loaded on use, so that commands that never call LAPACK start without it.
    dgtsv = flapack().dgtsv

    at = np.repeat(big, size)
    low = np.empty_like(f)  # dF_{j+1}/dg_j at [a + 1, b) of each cell
    u, v, w = u[at], v[at], w[at]
    low[at] = -(v / w) * ((u - w) / w)
    upper, rhs = np.ones(size.max() - 1), -f  # dF_j/dg_{j+1}
    big = np.flatnonzero(big)
    for a, b in zip(seg[big].tolist(), seg[big + 1].tolist()):
        *_, step[a:b], info = dgtsv(low[a + 1 : b], diag[a:b], upper[: b - a - 1], rhs[a:b])
        if info:
            raise np.linalg.LinAlgError("singular matrix")
    return step


def _halve_until_better(g, start, live, idx, sizes, step, fnorm) -> np.ndarray:
    """Move each live cell to the first g + step/2^k (k = 0, 1, ...) that
    stays strictly increasing and lowers its ``_scaled_norm``.

    Cell c is the trajectory g[start[c]:start[c+1]].  The cells ``live``
    have ``sizes`` interior gaps each, at the flat indices ``idx`` (end to
    end), and ``step`` holds their steps there.  One scale 2^-k serves every
    cell still searching.  A cell that finds a point gets it in g and its
    norm in ``fnorm``; a cell stops without one once its step no longer
    moves g (or is not finite).  Returns the mask over ``live`` of the cells
    that found one.
    """
    searching = np.logical_and.reduceat(np.isfinite(step), _offsets(sizes)[:-1])
    rows, pick = np.flatnonzero(searching), np.repeat(searching, sizes)
    found, cand, s = np.zeros(live.size, dtype=bool), g.copy(), 1.0
    while rows.size:
        m, i = sizes[rows], idx[pick]
        old = g[i]
        cand[i] = old + s * step[pick]
        moved = ~np.logical_and.reduceat(cand[i] == old, _offsets(m)[:-1])
        rise = np.diff(cand) > 0
        rise[start[1:-1] - 1] = True  # the step from one cell to the next
        test = moved & np.logical_and.reduceat(rise, start[:-1])[live[rows]]
        hit = np.zeros(rows.size, dtype=bool)
        if test.any():
            i = i[np.repeat(test, m)]
            norm = _scaled_norm(cand, i, _recurrence(cand, i)[0], _offsets(m[test]))
            cells = live[rows[test]]
            better = norm < fnorm[cells]
            i = i[np.repeat(better, m[test])]
            g[i], fnorm[cells[better]] = cand[i], norm[better]
            hit[test] = better
            found[rows[hit]] = True
        stay = moved & ~hit
        pick[pick] = np.repeat(stay, m)
        rows = rows[stay]
        s *= 0.5
    return found


def _newton(problems) -> list[tuple]:
    """Newton's method on F(g) = 0 for a ragged stack of problems of any N.

    The trajectories lie end to end in one flat array, cell c from offset
    start[c]; elementwise work runs on index arrays over every cell still
    iterating, and per-cell maxima and tests are ``reduceat`` over each
    cell's segment.  Starts from the continuum trajectories, evaluated once
    over the whole axis; each step is one tridiagonal solve per cell, halved
    until ``_scaled_norm`` falls with g still strictly increasing.  A cell
    stops below ``POLISH_TARGET``, once no halving helps or after
    ``MAX_NEWTON_ITER`` steps; a cell with N = 1 has no interior, norm 0 and
    never iterates.  Returns one (g, scaled norm, absolute max|F|, sigma) per
    cell, in the order of ``problems``; sigma (one stacked
    ``relative_entropy_chain`` per distinct N) is NaN for a cell whose scaled
    norm is not below ``RESIDUAL_TARGET``.
    """
    n = np.array([p.n_modes for p in problems], dtype=int)
    start = _offsets(n + 1)
    cell = np.repeat(np.arange(len(n)), n + 1)
    ends = _log_tanh_quarter([(p.g0, p.gN) for p in problems])[cell]
    g = _continuum(ends[:, 0], ends[:, 1], np.arange(start[-1]) - start[cell], n[cell])
    g[start[:-1]] = [p.g0 for p in problems]
    g[start[1:] - 1] = [p.gN for p in problems]
    inner, seg = _ranges(start[:-1] + 1, n - 1), _offsets(n - 1)
    fnorm = _scaled_norm(g, inner, _recurrence(g, inner)[0], seg)
    live = np.flatnonzero(~(fnorm < POLISH_TARGET))
    for _ in range(MAX_NEWTON_ITER):
        if not live.size:
            break
        sizes = n[live] - 1
        idx = inner[_ranges(seg[live], sizes)]
        step = _newton_steps(*_recurrence(g, idx), _offsets(sizes))
        # a cell that no halving helps is at its roundoff floor
        live = live[_halve_until_better(g, start, live, idx, sizes, step, fnorm)]
        live = live[~(fnorm[live] < POLISH_TARGET)]

    residual = _segment_max(np.abs(_recurrence(g, inner)[0]), seg)
    sigma = np.full(len(n), math.nan)
    certified = fnorm < RESIDUAL_TARGET
    for size in np.unique(n[certified]).tolist():  # the certified cells of one N as rows
        cells = np.flatnonzero(certified & (n == size))
        chains = g[start[cells, None] + np.arange(size + 1)]
        sigma[cells] = relative_entropy_chain(occupation_from_gap(chains))
    return list(zip(np.split(g, start[1:-1]), fnorm.tolist(), residual.tolist(), sigma.tolist()))


def _certified(cell) -> tuple:
    """The ``_newton`` cell itself; ConvergenceError (carrying the final
    iterate and its absolute residual) unless its scaled norm, and with it
    the absolute max|F|, is below 1e-12."""
    g, fnorm, residual, _ = cell
    if not (fnorm < RESIDUAL_TARGET):
        raise ConvergenceError(
            f"scaled stationarity residual {fnorm:.3e} above {RESIDUAL_TARGET}",
            best=g,
            residual=residual,
        )
    return cell


def _solutions_valid(cells) -> np.ndarray:
    """Per cell, whether ``SpectrumSolution`` accepts it as a numeric
    solution (g strictly increasing, sigma not negative, residual below
    ``RESIDUAL_LIMIT``), checked over the whole stack at once."""
    lens = np.array([cell[0].shape[0] for cell in cells])
    ends = np.cumsum(lens)
    drop = np.diff(np.concatenate([cell[0] for cell in cells])) <= 0
    drop[ends[:-1] - 1] = False  # the step from one cell to the next
    falls = np.logical_or.reduceat(drop, ends - lens)
    _, residual, sigma = np.array([cell[1:] for cell in cells]).T
    return ~falls & ~(sigma < 0) & (residual < RESIDUAL_LIMIT)


def solve_stationarity(problem: SpectrumProblem) -> SpectrumSolution:
    """Optimal interior gaps by Newton's method on the stationarity recurrence.

    Solves F(g) = 0 (see ``_recurrence``) for g_1 .. g_{N-1}: the Jacobian is
    tridiagonal, so each step is one banded solve, halved until
    ``_scaled_norm`` falls with g still strictly increasing.  Iteration stops
    below ``POLISH_TARGET`` or once no halving helps.  Raises ConvergenceError
    (carrying the final iterate and its absolute residual) unless the scaled
    norm, and with it the reported absolute max|F|, is below 1e-12.  This is
    the one-cell call of the ragged stack that ``sweep_sigma_vs_lambda``
    runs.
    """
    g, _, residual, sigma = _certified(_newton([problem])[0])
    return SpectrumSolution(g=g, sigma=sigma, residual=residual, method="numeric")


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
    """Smallest Hessian eigenvalue at the solution (positive iff strictly convex).

    LAPACK ``dstebz`` with the arguments of
    ``scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))``:
    the first eigenvalue by index, bisection to full accuracy (tol 0), in
    matrix order; a 1x1 Hessian is its entry, as there.
    """
    if solution.g.shape[0] < 3:
        return math.inf
    diag, off = hessian_interior(solution.nbars)
    if diag.size == 1:
        return float(diag[0])
    _, w, *_, info = flapack().dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz failed (info {info})")
    return float(w[0])


def sweep_sigma_vs_lambda(n0: float, lambdas, ns, compare: bool = False) -> list[dict]:
    """Optimal spectrum ``g`` and dissipation of each (N, lambda) cell, sorted by (N, lambda).

    The grid is the sorted (N, lambda) pairs, so rows come out in that order
    (a repeated pair gives identical rows).  A row holds ``N``, ``lambda``,
    ``g`` (the gaps g_0 ... g_N, endpoints included; empty on a failed cell),
    ``sigma_star_star``, ``residual`` and ``error``.  Invalid endpoints raise
    ``DomainError`` (the first bad cell in that order) before any solve.
    Every cell, whatever its N, is solved in one ragged ``_newton`` stack,
    and the stack is certified at once: each cell passes ``_certified``,
    then ``SpectrumSolution``'s checks, in that order and with their
    messages.  A failed cell does not raise: the row carries
    NaN ``sigma_star_star`` and ``residual`` and the message in ``error``.
    With ``compare`` the row also holds ``sigma_analytic_sampled``, the
    dissipation of the sampled continuum trajectory.
    """
    grid = [
        (lam, SpectrumProblem.from_occupation(n0, lam, n))
        for n, lam in sorted((n, lam) for n in ns for lam in lambdas)
    ]
    if not grid:
        return []
    lams, problems = zip(*grid)
    cells = _newton(problems)
    rows = []
    for lam, problem, cell, valid in zip(lams, problems, cells, _solutions_valid(cells)):
        row = {"N": problem.n_modes, "lambda": lam, "g": []}
        try:
            g, _, residual, sigma = _certified(cell)
            if not valid:  # SpectrumSolution raises the check's own message
                SpectrumSolution(g=g, sigma=sigma, residual=residual, method="numeric")
            row.update(sigma_star_star=sigma, residual=residual, g=g.tolist(), error="")
            if compare:
                row["sigma_analytic_sampled"] = analytic_sampled_solution(problem).sigma
        except BosecoolError as exc:
            row.update(sigma_star_star=math.nan, residual=math.nan, error=str(exc))
        rows.append(row)
    return rows
