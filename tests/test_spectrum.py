import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bosecool import spectrum as S
from bosecool.errors import ConvergenceError, DomainError


class TestProblem:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(DomainError):
            S.SpectrumProblem(g0=1.0, gN=0.5, n_modes=2)
        with pytest.raises(DomainError):
            S.SpectrumProblem(g0=-1.0, gN=0.5, n_modes=2)
        with pytest.raises(DomainError):
            S.SpectrumProblem(g0=0.5, gN=1.0, n_modes=0)

    @pytest.mark.parametrize(
        "n0, lam", [(10.0, 0.5), (0.0, 4.0), (math.nan, 4.0), (10.0, math.nan),
                    (math.inf, 4.0), (10.0, math.inf)]
    )
    def test_from_occupation_rejects_invalid_or_nonfinite(self, n0, lam):
        with pytest.raises(DomainError, match="need finite n0 > 0 and lam > 1"):
            S.SpectrumProblem.from_occupation(n0, lam, 2)

    def test_rejects_gap_beyond_float_range(self):
        # Above ln(float max) nbar_N = 1/(e^gN - 1) underflows to 0.
        S.SpectrumProblem(g0=1.0, gN=S.GAP_MAX, n_modes=2)
        with pytest.raises(DomainError, match="ln\\(float max\\)"):
            S.SpectrumProblem(g0=1.0, gN=math.nextafter(S.GAP_MAX, math.inf), n_modes=2)
        with pytest.raises(DomainError):
            S.SpectrumProblem.from_occupation(10.0, 1e4, 4)  # gN = 953

    def test_from_occupation(self):
        p = S.SpectrumProblem.from_occupation(10.0, 4.0, 3)
        assert p.g0 == pytest.approx(math.log(1.1), rel=1e-14)
        assert p.gN == pytest.approx(4 * math.log(1.1), rel=1e-14)


class TestAnalyticTrajectory:
    def test_endpoints_exact(self):
        p = S.SpectrumProblem(g0=0.3, gN=2.7, n_modes=7)
        assert S.analytic_trajectory(p, 0) == pytest.approx(0.3, abs=1e-12)
        assert S.analytic_trajectory(p, 7) == pytest.approx(2.7, abs=1e-12)

    def test_endpoints_exact_extreme(self):
        p = S.SpectrumProblem(g0=1e-4, gN=math.log(1 + 1e5), n_modes=5)
        assert S.analytic_trajectory(p, 0) == pytest.approx(1e-4, rel=1e-11)
        assert S.analytic_trajectory(p, 5) == pytest.approx(p.gN, rel=1e-12)

    def test_constant_when_endpoints_meet(self):
        # gN must exceed g0 for a problem; check near-degenerate flatness.
        p = S.SpectrumProblem(g0=1.0, gN=1.0 + 1e-9, n_modes=4)
        g = S.analytic_trajectory(p, np.arange(5))
        assert np.max(np.abs(g - 1.0)) < 1e-8

    def test_monotone_increasing(self):
        p = S.SpectrumProblem(g0=0.1, gN=5.0, n_modes=20)
        g = S.analytic_trajectory(p, np.arange(21))
        assert np.all(np.diff(g) > 0)

    def test_recurrence_residual_second_order(self):
        # Residual of the sampled continuum points decays at least like 1/N^2.
        p100 = S.SpectrumProblem(g0=math.log(1.1), gN=20 * math.log(1.1), n_modes=100)
        p200 = S.SpectrumProblem(g0=p100.g0, gN=p100.gN, n_modes=200)
        r100 = S.stationarity_residual(S.analytic_trajectory(p100, np.arange(101)))
        r200 = S.stationarity_residual(S.analytic_trajectory(p200, np.arange(201)))
        assert r100 < 1e-4
        assert r200 < r100 / 4


class TestSolveStationarity:
    def test_single_mode_closed_form(self):
        p = S.SpectrumProblem(g0=0.2, gN=1.1, n_modes=1)
        sol = S.solve_stationarity(p)
        na, nb = S.occupation_from_gap(np.array([0.2, 1.1])).tolist()
        # D[tau_a || tau_b] in occupations, well conditioned at these O(1) values.
        d = (na + 1.0) * math.log((nb + 1.0) / (na + 1.0)) + na * math.log(na / nb)
        assert sol.sigma == pytest.approx(d, rel=1e-14)
        assert sol.residual == 0.0

    def test_residual_certificate(self):
        for lam in (1.2, 3.0, 20.0, 120.8):
            p = S.SpectrumProblem.from_occupation(10.0, lam, 5)
            sol = S.solve_stationarity(p)
            assert sol.residual < 1e-12
            assert np.all(np.diff(sol.g) > 0)

    @pytest.mark.parametrize("n_modes", [64, 100])
    def test_formerly_stalled_cells_certified(self, n_modes):
        sol = S.solve_stationarity(S.SpectrumProblem.from_occupation(10.0, 120.8, n_modes))
        assert sol.residual < 1e-12
        assert np.all(np.diff(sol.g) > 0)

    def test_no_refusals_on_wide_grid(self):
        # Log-uniform draws over the certified domain: n0 in {1, 10, 100},
        # lambda in [1.05, 1e4] with gN <= 300, N in [1, 1e4], plus the corners.
        rng = np.random.default_rng(9)
        cells = []
        for n0 in (1.0, 10.0, 100.0):
            lam_max = min(1e4, 300.0 / math.log1p(1.0 / n0))
            cells += [(n0, 1.05, 1), (n0, lam_max, 1), (n0, 1.05, 10_000), (n0, lam_max, 10_000)]
            for _ in range(100):
                lam = math.exp(rng.uniform(math.log(1.05), math.log(lam_max)))
                cells.append((n0, lam, int(round(10 ** rng.uniform(0.0, 4.0)))))
        for n0, lam, n in cells:
            sol = S.solve_stationarity(S.SpectrumProblem.from_occupation(n0, lam, n))
            assert sol.residual < 1e-12, (n0, lam, n)
            assert np.all(np.diff(sol.g) > 0), (n0, lam, n)
            assert math.isfinite(sol.sigma) and sol.sigma > 0, (n0, lam, n)

    def test_ladder_bytes_independent_of_blas_threads(self):
        argv = [sys.executable, "-m", "bosecool.cli", "optimize-spectrum", "--n0", "10",
                "--lambdas", "5,120.8", "--modes", "64,128,1024"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(argv, env=env, capture_output=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_matches_brute_force_scan_n2(self):
        # One interior point: golden-section style dense scan as oracle.
        p = S.SpectrumProblem.from_occupation(10.0, 5.0, 2)
        nb0 = float(S.occupation_from_gap(p.g0))
        nbN = float(S.occupation_from_gap(p.gN))
        xs = np.linspace(nbN * 1.0001, nb0 * 0.9999, 400001)
        vals = (
            (nb0 + 1) * (np.log1p(xs) - np.log1p(nb0))
            + nb0 * (np.log(nb0) - np.log(xs))
            + (xs + 1) * (np.log1p(nbN) - np.log1p(xs))
            + xs * (np.log(xs) - np.log(nbN))
        )
        best = xs[np.argmin(vals)]
        sol = S.solve_stationarity(p)
        assert sol.nbars[1] == pytest.approx(best, abs=2e-5)
        assert sol.sigma <= np.min(vals) + 1e-12

    def test_perturbing_interior_increases_sigma(self):
        p = S.SpectrumProblem.from_occupation(10.0, 4.0, 4)
        sol = S.solve_stationarity(p)
        nb = sol.nbars
        base = S.relative_entropy_chain(nb)
        for j in range(1, 4):
            for eps in (+1e-4, -1e-4):
                trial = nb.copy()
                trial[j] += eps
                assert S.relative_entropy_chain(trial) > base

    def test_convexity_certificate_positive(self):
        for lam in (1.1, 2.0, 50.0):
            p = S.SpectrumProblem.from_occupation(10.0, lam, 5)
            sol = S.solve_stationarity(p)
            assert S.convexity_certificate(sol) > 0.0

    def test_convexity_certificate_matches_finite_difference_hessian(self):
        sol = S.solve_stationarity(S.SpectrumProblem.from_occupation(10.0, 4.0, 6))
        x, h = sol.nbars, 1e-4
        m = x.shape[0] - 2

        def sigma(di, dj, i, j):
            y = x.copy()
            y[1 + i] += di
            y[1 + j] += dj
            return S.relative_entropy_chain(y)

        fd = np.array([[(sigma(h, h, i, j) - sigma(h, -h, i, j) - sigma(-h, h, i, j)
                         + sigma(-h, -h, i, j)) / (4 * h * h) for j in range(m)] for i in range(m)])
        diag, off = S.hessian_interior(x)
        assert np.allclose(np.diag(fd), diag, rtol=1e-5)
        assert np.allclose(np.diag(fd, 1), off, rtol=1e-5, atol=1e-9)
        assert np.allclose(np.diag(fd, 2), 0.0, atol=1e-7)
        assert S.convexity_certificate(sol) == pytest.approx(np.linalg.eigvalsh(fd)[0], rel=1e-5)

    def test_nested_optimality(self):
        sigmas = [
            S.solve_stationarity(S.SpectrumProblem.from_occupation(10.0, 6.0, n)).sigma
            for n in (1, 2, 3, 4, 6)
        ]
        assert all(b <= a for a, b in zip(sigmas, sigmas[1:]))

    def test_numeric_beats_analytic_sampling(self):
        for n in (2, 3, 5, 8):
            p = S.SpectrumProblem.from_occupation(10.0, 120.8, n)
            num = S.solve_stationarity(p).sigma
            ana = S.analytic_sampled_solution(p).sigma
            assert num <= ana + 1e-12

    def test_analytic_gap_shrinks_with_n(self):
        gaps = []
        for n in (2, 4, 8, 16):
            p = S.SpectrumProblem.from_occupation(10.0, 20.0, n)
            num = S.solve_stationarity(p).sigma
            ana = S.analytic_sampled_solution(p).sigma
            gaps.append(ana - num)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestSigmaLargeN:
    def test_degenerate_endpoint_limit(self):
        p = S.SpectrumProblem(g0=1.0, gN=1.0 + 1e-12, n_modes=3)
        assert S.sigma_large_n(p) == pytest.approx(0.0, abs=1e-20)

    def test_explicit_inverse_n(self):
        p1 = S.SpectrumProblem(g0=0.3, gN=2.0, n_modes=10)
        p2 = S.SpectrumProblem(g0=0.3, gN=2.0, n_modes=20)
        assert S.sigma_large_n(p2) == pytest.approx(S.sigma_large_n(p1) / 2, rel=1e-14)

    def test_numeric_convergence(self):
        p = S.SpectrumProblem(g0=math.log(1.1), gN=20 * math.log(1.1), n_modes=100)
        num = S.solve_stationarity(p).sigma
        asym = S.sigma_large_n(p)
        assert abs(num - asym) / asym < 0.05


class TestSweep:
    def test_ordering_and_positivity(self):
        lambdas = np.geomspace(1.05, 20.0, 12)
        rows = S.sweep_sigma_vs_lambda(10.0, lambdas, [1, 2, 4])
        by_n = {
            n: [r["sigma_star_star"] for r in rows if r["N"] == n] for n in (1, 2, 4)
        }
        for n in (1, 2, 4):
            vals = np.array(by_n[n])
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) > 0)  # increasing in lambda
        assert np.all(np.array(by_n[4]) < np.array(by_n[2]))
        assert np.all(np.array(by_n[2]) < np.array(by_n[1]))

    def test_vanishes_toward_unit_ratio(self):
        row = S.sweep_sigma_vs_lambda(10.0, [1.0005], [1, 2])
        assert all(r["sigma_star_star"] < 2e-5 for r in row)

    def test_rows_sorted(self):
        rows = S.sweep_sigma_vs_lambda(10.0, [3.0, 1.5], [2, 1])
        keys = [(r["N"], r["lambda"]) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n0, lam", [(1e20, 1e10), (1e200, 1e190), (1e250, 1e240)])
    def test_tiny_gaps_are_geometric(self, n0, lam):
        # Far below unit gaps the optimum is g_j = g0 lam^(j/N) up to O(gN)
        # = 1e-10.  F_j scales with the gaps, so the absolute 1e-12 target
        # says little; the products u_j v_j and expm1(-g)^2 underflow; and
        # nbar ~ 1/g is so large that differences of ln nbar lose sigma.
        (row,) = S.sweep_sigma_vs_lambda(n0, [lam], [5])
        assert row["error"] == "" and row["residual"] < 1e-12
        geometric = row["g"][0] * lam ** (np.arange(6) / 5)
        np.testing.assert_allclose(row["g"], geometric, rtol=1e-9)
        r = lam ** 0.2  # each step then costs D = r - 1 - ln r
        assert row["sigma_star_star"] == pytest.approx(5 * (r - 1 - math.log(r)), rel=1e-9)

    @pytest.mark.parametrize("n0, lam", [(1e20, 1e10), (1e200, 1e185)])
    def test_tiny_gaps_certified_from_a_poor_start(self, n0, lam, monkeypatch):
        # A start at half the optimum has max|F| below 1e-12 near g0 (and, at
        # gN = 1e-15, everywhere): only a certificate that measures F_j
        # against g_{j+1} drives it on, or refuses it without iterations.
        start = S._continuum
        monkeypatch.setattr(S, "_continuum", lambda *a: 0.5 * start(*a))
        (row,) = S.sweep_sigma_vs_lambda(n0, [lam], [5])
        geometric = row["g"][0] * lam ** (np.arange(6) / 5)
        np.testing.assert_allclose(row["g"], geometric, rtol=1e-9)
        monkeypatch.setattr(S, "MAX_NEWTON_ITER", 0)  # the start itself is refused
        (row,) = S.sweep_sigma_vs_lambda(n0, [lam], [5])
        assert "residual" in row["error"] and row["g"] == []

    def test_failed_cell_is_an_error_row(self, monkeypatch):
        def stall(problem):
            raise ConvergenceError("stationarity residual 7.093e-08 above 1e-12",
                                   best=None, residual=7.093e-08)

        monkeypatch.setattr(S, "_certified", stall)
        (row,) = S.sweep_sigma_vs_lambda(10.0, [120.8], [64])
        assert "residual" in row["error"]
        assert math.isnan(row["sigma_star_star"]) and math.isnan(row["residual"])


# ---------------------------------------------------------------------------
# The per-cell Newton solve as it ran before the cell axis: one problem at a
# time, the start from scalar endpoints, scipy's solve_banded for each step
# and a per-cell halving loop.  It is the oracle for the stacked solve.


def _reference_recurrence(g):
    u, v, w = np.expm1(g[1:-1] - g[:-2]), np.expm1(-g[1:-1]), np.expm1(-g[:-2])
    return (g[2:] - g[1:-1]) - u * (v / w), u, v, w


def _reference_scaled_norm(g, f):
    return float(np.max(np.abs(f) / np.minimum(g[2:], 1.0), initial=0.0))


def _reference_cell(problem):
    """(g, scaled norm, absolute max|F|, sigma or NaN) of one cell."""
    from scipy.linalg import solve_banded

    def log_tanh_quarter(gap):
        x = 0.5 * gap
        return float(S._log1mexp(x)) - math.log1p(math.exp(-x))

    n = problem.n_modes
    z0, zn = log_tanh_quarter(problem.g0), log_tanh_quarter(problem.gN)
    js = np.arange(n + 1, dtype=float)
    z = (js / n) * zn + ((n - js) / n) * z0
    g = 2.0 * (np.log1p(np.exp(z)) - S._log1mexp(-z))
    g[0], g[-1] = problem.g0, problem.gN
    f, u, v, w = _reference_recurrence(g)
    fnorm = _reference_scaled_norm(g, f)
    bands = np.zeros((3, n - 1))
    bands[0, 1:] = 1.0
    for _ in range(S.MAX_NEWTON_ITER):
        if fnorm < S.POLISH_TARGET:
            break
        bands[1] = -1.0 - (v - u) / w
        bands[2, :-1] = (-(v / w) * ((u - w) / w))[1:]
        step = solve_banded((1, 1), bands, -f, check_finite=False)
        accepted, s = None, 1.0
        while np.all(np.isfinite(step)):
            cand = g.copy()
            cand[1:-1] += s * step
            if np.array_equal(cand, g):
                break
            if np.all(np.diff(cand) > 0):
                rec = _reference_recurrence(cand)
                if _reference_scaled_norm(cand, rec[0]) < fnorm:
                    accepted = cand, rec
                    break
            s *= 0.5
        if accepted is None:
            break
        g, (f, u, v, w) = accepted
        fnorm = _reference_scaled_norm(g, f)
    residual = float(np.max(np.abs(_reference_recurrence(g)[0]))) if n > 1 else 0.0
    sigma = math.nan
    if fnorm < S.RESIDUAL_TARGET:
        nb = 1.0 / np.expm1(g)
        gaps = np.log1p(1.0 / nb)
        lg = S._log1mexp(gaps)
        sigma = float(np.sum(lg[:-1] - lg[1:] + (gaps[1:] - gaps[:-1]) * nb[:-1]))
    return g, fnorm, residual, sigma


def _reference_row(n0, lam, n):
    """Sweep row fields of one cell, from the oracle."""
    g, fnorm, residual, sigma = _reference_cell(S.SpectrumProblem.from_occupation(n0, lam, n))
    if fnorm < S.RESIDUAL_TARGET:
        return g.tolist(), sigma, residual, ""
    return [], math.nan, math.nan, (
        f"scaled stationarity residual {fnorm:.3e} above {S.RESIDUAL_TARGET}"
    )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestCellAxis:
    """The stacked solve gives every cell the bits of the per-cell solve."""

    def assert_sweep_matches_reference(self, n0, lambdas, ns):
        rows = S.sweep_sigma_vs_lambda(n0, lambdas, ns)
        assert [(r["N"], r["lambda"]) for r in rows] == [
            (n, lam) for n in sorted(ns) for lam in sorted(lambdas)
        ]
        errors = 0
        for row in rows:
            g, sigma, residual, error = _reference_row(n0, row["lambda"], row["N"])
            key = (n0, row["lambda"], row["N"])
            assert _bits(row["g"]) == _bits(g), key
            assert _bits(row["sigma_star_star"]) == _bits(sigma), key
            assert _bits(row["residual"]) == _bits(residual), key
            assert row["error"] == error, key
            errors += error != ""
        return errors

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_readme_sweep_sizes(self, n):
        # N = 1 has no interior gap; N = 2 takes the division path.
        lambdas = np.geomspace(1.05, 20.0, 60).tolist()
        assert self.assert_sweep_matches_reference(10.0, lambdas, [n]) == 0

    def test_small_machines_across_occupations(self):
        lambdas = [1.0005, 1.05, 1.5, 3.0, 20.0, 120.8]
        for n0 in (0.01, 1.0, 100.0):
            self.assert_sweep_matches_reference(n0, lambdas, [1, 2, 3])

    @pytest.mark.parametrize(
        "n0, lambdas",
        [(1e20, [1e10, 1e5, 10.0, 1.5]), (1e200, [1e190, 1e185, 1e100, 2.0]),
         (1e250, [1e240, 10.0])],
    )
    def test_tiny_gap_cells(self, n0, lambdas):
        assert self.assert_sweep_matches_reference(n0, lambdas, [2, 5]) == 0

    def test_ladder(self):
        ladder = [8, 16, 32, 64, 100, 128, 256, 512, 1024]
        assert self.assert_sweep_matches_reference(10.0, [5.0, 20.0, 120.8], ladder) == 0

    def test_floor_cell_stacked_with_converging_cells(self):
        # (n0 1, lambda 1012.27, N 68) stops at a scaled residual of 1.023e-12,
        # next to three cells of the same N that converge.
        lambdas = [1.5, 5.0, 1012.27, 20.0]
        assert self.assert_sweep_matches_reference(1.0, lambdas, [68]) == 1
        (row,) = S.sweep_sigma_vs_lambda(1.0, [1012.27], [68])
        assert row["error"] == "scaled stationarity residual 1.023e-12 above 1e-12"

    def test_error_cells_keep_their_iterate(self):
        # The ConvergenceError of a cell carries the same iterate and residual
        # alone and in a stack.
        problems = [S.SpectrumProblem.from_occupation(1.0, lam, 68)
                    for lam in (1.5, 1012.27, 20.0)]
        for cell, problem in zip(S._newton(problems), problems):
            want = _reference_cell(problem)
            assert [_bits(x) for x in cell] == [_bits(x) for x in want]
        with pytest.raises(ConvergenceError) as err:
            S.solve_stationarity(problems[1])
        assert _bits(err.value.best) == _bits(_reference_cell(problems[1])[0])
        assert _bits(err.value.residual) == _bits(_reference_cell(problems[1])[2])

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_iteration_cap_per_cell(self, max_iter, monkeypatch):
        # Cells that need different numbers of steps stop at the cap each on
        # its own count: the rows match the oracle under the same cap.
        monkeypatch.setattr(S, "MAX_NEWTON_ITER", max_iter)
        lambdas = [1.0005, 1.5, 20.0, 120.8, 600.0]
        errors = self.assert_sweep_matches_reference(10.0, lambdas, [2, 6, 40])
        assert errors > 0

    def test_solve_stationarity_is_the_one_cell_stack(self):
        for n0, lam, n in [(10.0, 4.0, 1), (10.0, 4.0, 2), (10.0, 120.8, 64), (1e20, 1e10, 5)]:
            problem = S.SpectrumProblem.from_occupation(n0, lam, n)
            sol = S.solve_stationarity(problem)
            g, _, residual, sigma = _reference_cell(problem)
            assert _bits(sol.g) == _bits(g)
            assert _bits(sol.sigma) == _bits(sigma) and _bits(sol.residual) == _bits(residual)

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3, None])
    def test_mixed_sizes_in_one_stack(self, max_iter, monkeypatch):
        # README sizes, the ladder, the floor cell and a tiny-gap cell in one
        # ragged call, in shuffled order: every cell keeps the bits of its
        # one-cell solve, at each iteration cap and uncapped.
        if max_iter is not None:
            monkeypatch.setattr(S, "MAX_NEWTON_ITER", max_iter)
        cells = [(10.0, lam, n) for n in (1, 2, 4) for lam in np.geomspace(1.05, 20.0, 60)]
        cells += [(10.0, lam, n) for n in (8, 16, 32, 64, 100, 128, 256, 512, 1024)
                  for lam in (5.0, 20.0, 120.8)]
        cells += [(1.0, 1012.27, 68), (1e20, 1e10, 5)]
        order = np.random.default_rng(14).permutation(len(cells))
        problems = [S.SpectrumProblem.from_occupation(*cells[k]) for k in order]
        errors = 0
        for cell, problem in zip(S._newton(problems), problems):
            want = _reference_cell(problem)
            assert [_bits(x) for x in cell] == [_bits(x) for x in want], problem
            errors += not (want[1] < S.RESIDUAL_TARGET)
        assert errors > 0  # the floor cell at least

    def test_multi_size_sweep_is_one_newton_call(self, monkeypatch):
        calls = []
        newton = S._newton

        def counted(problems):
            calls.append(sorted({p.n_modes for p in problems}))
            return newton(problems)

        monkeypatch.setattr(S, "_newton", counted)
        rows = S.sweep_sigma_vs_lambda(10.0, [1.5, 5.0], [4, 1, 64, 2, 2])
        assert calls == [[1, 2, 4, 64]]
        assert len(rows) == 10

    def test_stack_checks_match_spectrum_solution(self):
        g = np.array([0.1, 0.5, 1.0])
        cells = [
            (g, 0.0, 1e-13, 0.2),
            (np.array([0.1, 0.1, 1.0]), 0.0, 1e-13, 0.2),
            (np.array([0.1, 0.6, 0.5, 1.0]), 0.0, 1e-13, 0.2),
            (np.array([0.1, np.nan, 1.0]), 0.0, 1e-13, 0.2),
            (g, 0.0, 1e-13, -1e-18),
            (g, 0.0, 1e-13, math.nan),
            (g, 0.0, S.RESIDUAL_LIMIT, 0.2),
            (g, 0.0, math.nan, 0.2),
            (np.array([0.1, 1.0]), 0.0, 0.0, 0.3),
        ]
        for cell, valid in zip(cells, S._solutions_valid(cells), strict=True):
            try:
                S.SpectrumSolution(g=cell[0], sigma=cell[3], residual=cell[2], method="numeric")
            except DomainError:
                assert not valid, cell
            else:
                assert valid, cell

    @pytest.mark.parametrize("g, residual, sigma, error", [
        ([0.1, 0.1, 1.0], 1e-13, 0.2, "trajectory must be strictly increasing"),
        ([0.1, 0.5, 1.0], 1e-13, -1e-18, "entropy production cannot be negative"),
        ([0.1, 0.5, 1.0], 1e-10, 0.2, "numeric solution with residual 1.000e-10 is not converged"),
    ])
    def test_sweep_rows_carry_solution_check_messages(self, g, residual, sigma, error,
                                                       monkeypatch):
        # A certified cell that SpectrumSolution would refuse becomes an error
        # row with its message; its neighbour in the stack stays a solution.
        good = S._newton([S.SpectrumProblem.from_occupation(10.0, 1.5, 2)])[0]
        monkeypatch.setattr(S, "_newton", lambda problems: [
            good, (np.array(g), 0.0, residual, sigma)])
        ok, bad = S.sweep_sigma_vs_lambda(10.0, [1.5, 3.0], [2])
        assert ok["error"] == "" and ok["g"] == good[0].tolist()
        assert bad["error"] == error and bad["g"] == []
        assert math.isnan(bad["sigma_star_star"]) and math.isnan(bad["residual"])

    def test_stack_starts_from_each_cells_continuum_trajectory(self, monkeypatch):
        # Without Newton steps every cell of a shuffled mixed-N stack keeps
        # its start: the interior gaps are the bits of the one-problem
        # continuum trajectory, whatever the cell is stacked with.
        monkeypatch.setattr(S, "MAX_NEWTON_ITER", 0)
        cells = [(10.0, lam, n) for n in (1, 2, 3, 5, 8, 64) for lam in (1.05, 5.0, 120.8)]
        cells += [(1e20, 1e10, 5), (100.0, 1e4, 8)]  # a tiny-gap and a wide-ratio cell
        order = np.random.default_rng(16).permutation(len(cells))
        problems = [S.SpectrumProblem.from_occupation(*cells[k]) for k in order]
        for (g, *_), problem in zip(S._newton(problems), problems):
            want = S.analytic_trajectory(problem, np.arange(1, problem.n_modes))
            assert _bits(g[1:-1]) == _bits(want), problem
