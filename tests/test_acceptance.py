"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Shared heavy computations (spectrum sweep, collision runs) are
module-scoped fixtures so the whole suite stays within its runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from bosecool import cli
from bosecool import collisions as CA
from bosecool import fock as F
from bosecool import gaussian as G
from bosecool import hbac, spectrum, suites, tableio


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {name} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def thermal_frequency(nbar):
    return math.log1p(1.0 / nbar)


# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="module")
def dissipation_sweep():
    lambdas = np.geomspace(1.05, 20.0, 60)
    sols = {}
    start = time.perf_counter()
    for n in (1, 2, 4):
        sols[n] = [
            spectrum.solve_stationarity(spectrum.SpectrumProblem.from_occupation(10.0, lam, n))
            for lam in lambdas
        ]
    return lambdas, sols, time.perf_counter() - start


@pytest.fixture(scope="module")
def collision_runs():
    """Exact iterated-collision runs for p in {1,2,3} at the reference point."""
    nbar_s, nbar_m, t, rounds = 2.0, 1.5, 5e-3, 20000
    w0, w1 = thermal_frequency(nbar_s), thermal_frequency(nbar_m)
    runs = {}
    start = time.perf_counter()
    for p in (1, 2, 3):
        cut = F.FockCutoff.for_occupations(nbar_s, nbar_m, p=p, tail_tol=1e-12)
        h = F.build_hamiltonian(p=p, chi=1.0, omega0=w0, omega1=w1, cutoff=cut)
        rho0 = F.FockDensity.gibbs(nbar_s, cut.d_s, tail_tol=1e-11)
        trace = F.iterate_collisions(rho0, nbar_m, h, t, rounds, tail_tol=1e-11)
        stationary = F.stationary_populations(trace.transfer)
        runs[p] = dict(cut=cut, h=h, trace=trace, stationary=stationary)
    return runs, time.perf_counter() - start


# ---------------------------------------------------------------------------


def test_criterion_01_swap_chain_saturates_cooling_limit():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        spec = hbac.random_spec(rng, max_machine_modes=5, lam_range=(1.1, 50.0))
        trace = hbac.run_protocol(spec, hbac.build_swap_chain(spec), 1)
        beta_star, _ = hbac.gaussian_cooling_limit(spec)
        target = beta_star if spec.cooling_possible else spec.beta
        worst = max(worst, abs(trace.final.beta_eff - target) / target)
    elapsed = time.perf_counter() - start
    report(
        1,
        "one swap-chain round reaches beta_eff = lambda * beta (rel 1e-10)",
        worst < 1e-10 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s over 50 specs",
    )


def test_criterion_02_output_thermal_excitation_floor():
    start = time.perf_counter()
    result = suites.min_thermal_excitation_suite(10000, seed=2, modes=4)
    elapsed = time.perf_counter() - start
    report(
        2,
        "mode-1 thermal excitation never beats the best input (1e4 trials)",
        result.violations == 0 and elapsed < 30.0,
        f"violations {result.violations}, worst margin {result.worst_margin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_occupation_majorization():
    start = time.perf_counter()
    result = suites.excitation_majorization_suite(10000, seed=3, modes=4)
    elapsed = time.perf_counter() - start
    report(
        3,
        "partial occupation sums dominate under any Gaussian unitary (1e4 trials)",
        result.violations == 0 and elapsed < 30.0,
        f"violations {result.violations}, worst margin {result.worst_margin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_dissipation_formula_matches_trace():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        spec = hbac.random_spec(rng, max_machine_modes=5, lam_range=(1.1, 50.0))
        trace = hbac.run_protocol(spec, hbac.build_swap_chain(spec), 1)
        worst = max(worst, abs(trace.final.sigma - hbac.entropy_production_star(spec)))
    report(
        4,
        "swap-chain trace dissipation equals the ladder relative-entropy sum",
        worst < 1e-9,
        f"worst |diff| {worst:.2e} over 50 specs",
    )


def test_criterion_05_dissipation_drops_fast_with_machine_size(dissipation_sweep):
    lambdas, sols, elapsed = dissipation_sweep
    s1 = np.array([s.sigma for s in sols[1]])
    s2 = np.array([s.sigma for s in sols[2]])
    s4 = np.array([s.sigma for s in sols[4]])
    ordered = bool(np.all(s4 < s2) and np.all(s2 < s1))
    max_ratio = float(np.max(s2 / s1))
    report(
        5,
        "sigma**(4) < sigma**(2) < sigma**(1) pointwise and max sigma2/sigma1 < 0.5",
        ordered and max_ratio < 0.5 and elapsed < 60.0,
        f"ordered={ordered}, max ratio {max_ratio:.4f}, sweep {elapsed:.1f}s",
    )


def test_criterion_06_stationarity_residual_and_convexity(dissipation_sweep):
    _, sols, _ = dissipation_sweep
    extra = [
        spectrum.solve_stationarity(spectrum.SpectrumProblem.from_occupation(10.0, 120.8, n))
        for n in (2, 3, 5, 8)
    ]
    every = [s for group in sols.values() for s in group] + extra
    worst_res = max(s.residual for s in every)
    min_eig = min(spectrum.convexity_certificate(s) for s in every if s.g.shape[0] > 2)
    report(
        6,
        "every numeric spectrum: stationarity residual < 1e-12, Hessian PD",
        worst_res < 1e-12 and min_eig > 0,
        f"worst residual {worst_res:.2e}, min Hessian eig {min_eig:.2e}",
    )


def test_criterion_07_continuum_trajectory_and_scaling():
    problem = spectrum.SpectrumProblem(g0=math.log(1.1), gN=20 * math.log(1.1), n_modes=100)
    sol = spectrum.solve_stationarity(problem)
    ana = spectrum.analytic_trajectory(problem, np.arange(101))
    max_dev = float(np.max(np.abs(sol.g - ana)))

    asym = spectrum.sigma_large_n(problem)
    rel_sigma = abs(sol.sigma - asym) / asym

    double = spectrum.SpectrumProblem(g0=problem.g0, gN=problem.gN, n_modes=200)
    ratio = spectrum.solve_stationarity(double).sigma / sol.sigma

    ok_dev = max_dev < 1e-3
    ok_sigma = rel_sigma < 0.05
    ok_halving = abs(ratio - 0.5) < 0.05
    report(
        7,
        "N=100 trajectory within 1e-3 of continuum; sigma within 5% of large-N; 1/N scaling",
        ok_dev and ok_sigma and ok_halving,
        f"max |dg| {max_dev:.4e} (<1e-3: {ok_dev}), sigma rel dev {rel_sigma:.4f}, "
        f"sigma(2N)/sigma(N) {ratio:.4f}",
    )


def test_criterion_08_single_collision_discrepancy_is_fourth_order():
    grid_chit = (1e-2, 3e-2)
    start = time.perf_counter()
    worst_slope_dev = 0.0
    degenerate_ok = True
    checked = 0
    for p in (1, 2, 3):
        for nbar_m in (0.5, 1.5, 3.0):
            for nbar_s in (0.5, 2.0, 5.0):
                cut = F.FockCutoff.for_occupations(nbar_s, nbar_m, p=p, tail_tol=1e-12)
                h = F.build_hamiltonian(
                    p=p,
                    chi=1.0,
                    omega0=thermal_frequency(nbar_s),
                    omega1=thermal_frequency(nbar_m),
                    cutoff=cut,
                )
                rho = F.FockDensity.gibbs(nbar_s, cut.d_s, tail_tol=1e-11)

                def disc(chit):
                    out = F.single_collision(rho, nbar_m, h, chit, tail_tol=1e-11)
                    dn = F.mean_excitation(out) - F.mean_excitation(rho)
                    bracket = (1 + nbar_m) ** p * nbar_s - nbar_m**p * (1 + nbar_s)
                    return abs(dn + chit**2 * math.factorial(p) * bracket)

                d_grid = [disc(chit) for chit in grid_chit]
                if d_grid[0] < 1e-13:
                    # Threshold cell: the second-order change vanishes and the
                    # exact dynamics agrees at numerical floor; no slope exists.
                    degenerate_ok &= d_grid[1] < 1e-12
                    continue
                # Fourth-order certificate: the fitted C4 = disc/(chit)^4 must
                # be stable when chit halves from the grid's lower point.
                d_half = disc(grid_chit[0] / 2)
                slope = math.log(d_grid[0] / d_half) / math.log(2.0)
                worst_slope_dev = max(worst_slope_dev, abs(slope - 4.0))
                assert d_grid[1] > d_grid[0]  # grows with chi t across the grid
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        8,
        "oracle-vs-closed-form discrepancy scales as (chi t)^4 (slope 4 +/- 0.3)",
        worst_slope_dev <= 0.3 and degenerate_ok and elapsed < 300.0,
        f"{checked} cells, worst |slope-4| {worst_slope_dev:.3f}, "
        f"degenerate threshold cell at floor: {degenerate_ok}, {elapsed:.1f}s",
    )


def test_criterion_09_cooling_threshold_location():
    p, nbar_m, chit = 2, 1.5, 5e-3
    w1 = thermal_frequency(nbar_m)
    threshold = CA.cooling_threshold_nbar(p, nbar_m)

    def oracle_dn(nbar_s):
        cut = F.FockCutoff.for_occupations(nbar_s, nbar_m, p=p, tail_tol=1e-12)
        h = F.build_hamiltonian(
            p=p, chi=1.0, omega0=thermal_frequency(nbar_s), omega1=w1, cutoff=cut
        )
        rho = F.FockDensity.gibbs(nbar_s, cut.d_s, tail_tol=1e-11)
        out = F.single_collision(rho, nbar_m, h, chit, tail_tol=1e-11)
        return F.mean_excitation(out) - F.mean_excitation(rho)

    lo, hi = threshold - 5e-3, threshold + 5e-3
    ok_bracket = oracle_dn(lo) > 0 > oracle_dn(hi)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if oracle_dn(mid) > 0:
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    offset = abs(flip - threshold)
    report(
        9,
        "oracle energy-flow sign flips at the closed-form threshold (+/- 1e-3)",
        ok_bracket and offset < 1e-3,
        f"flip at {flip:.6f}, threshold {threshold}, offset {offset:.2e}",
    )


def test_criterion_10_iterated_cooling_asymptotes(collision_runs):
    runs, elapsed = collision_runs
    targets = {1: 1.5, 2: 0.5625, 3: 3.375 / 12.25}
    ok = elapsed < 600.0
    details = [f"runs {elapsed:.1f}s"]
    for p, run in runs.items():
        n_inf = float(run["stationary"] @ np.arange(run["cut"].d_s))
        rel = abs(n_inf - targets[p]) / targets[p]
        ok &= rel < 0.01
        details.append(f"p={p}: n_inf={n_inf:.6f} (rel {rel:.1e})")
        # The recorded trace must also match the closed-form finite-round law.
        params = CA.CollisionParams(p=p, chi=1.0, t=5e-3, nbar_s0=2.0, nbar_m=1.5)
        closed = CA.iterate_closed_form(params, 20000)
        ok &= abs(run["trace"].mean_n[-1] - closed) < 5e-3
    ok &= abs(float(runs[1]["stationary"] @ np.arange(runs[1]["cut"].d_s)) - 1.5) < 1e-6
    report(10, "collision asymptotes hit the boosted-gap thermal values (1%)", ok, "; ".join(details))


def test_criterion_11_fano_and_geometric_fixed_point(collision_runs):
    runs, _ = collision_runs
    ok = True
    details = []
    for p, run in runs.items():
        trace = run["trace"]
        tail = np.abs(trace.fano_q[int(0.9 * len(trace.fano_q)):])
        q_max = float(np.max(tail))
        stat = run["stationary"]
        n = np.arange(stat.shape[0])
        n_inf = float(stat @ n)
        ratio = n_inf / (1.0 + n_inf)
        geo = (1 - ratio) * ratio**n
        geo /= geo.sum()
        tv = 0.5 * float(np.sum(np.abs(stat - geo)))
        ok &= q_max < 1e-3 and tv < 1e-4
        details.append(f"p={p}: max|q| tail {q_max:.1e}, TV {tv:.1e}")
    report(
        11,
        "Fano factor vanishes in the final 10% and the fixed point is geometric (TV < 1e-4)",
        ok,
        "; ".join(details),
    )


def test_criterion_12_p_fold_inverse_temperature_boost(collision_runs):
    runs, _ = collision_runs
    w0, w1 = thermal_frequency(2.0), thermal_frequency(1.5)
    ok = True
    details = []
    for p, run in runs.items():
        n_inf = float(run["stationary"] @ np.arange(run["cut"].d_s))
        beta_eff = G.effective_beta(n_inf, w0)
        target = p * (w1 / w0) * 1.0
        rel = abs(beta_eff - target) / target
        ok &= rel < 1e-3
        details.append(f"p={p}: beta_eff/beta {beta_eff:.6f} vs {target:.6f} (rel {rel:.1e})")
    report(12, "asymptotic inverse temperature reaches p * (omega1/omega0) * beta", ok, "; ".join(details))


def test_criterion_13_deterministic_data_files(tmp_path):
    commands = [
        ["property-suite", "--trials", "300"],
        ["optimize-spectrum", "--lambdas", "1.5,5.0,120.8", "--modes", "1,2,4"],
        ["simulate-pexchange", "--p", "1,2,3", "--rounds", "200", "--record-every", "20"],
        ["simulate-gaussian", "--omegas", "1.5,2.5", "--rounds", "5"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        a = tmp_path / f"run{i}_a.csv"
        b = tmp_path / f"run{i}_b.csv"
        assert cli.main(argv + ["--seed", "42", "--out", str(a)]) == 0
        assert cli.main(argv + ["--seed", "42", "--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
        meta, rows = tableio.read_table(a)
        ok &= len(rows) > 0 and "config_hash" in meta
    report(13, "same seed reproduces byte-identical data files", ok, f"{len(commands)} commands doubled")
