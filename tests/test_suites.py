import math

import numpy as np
import pytest
from scipy.linalg import expm

from bosecool import gaussian as G
from bosecool import hbac, suites
from bosecool.errors import DomainError

SUITES = [
    suites.min_thermal_excitation_suite,
    suites.eigenvalue_domination_suite,
    suites.excitation_majorization_suite,
    suites.near_optimal_dissipation_suite,
]


# ---------------------------------------------------------------------------
# Per-trial oracle: one trial at a time through the public single-object API.
# The suites evaluate stacked chunks; their results must equal these exactly.


def _oracle_run(name, trials, seed, tol, margin):
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
    return suites.SuiteResult(
        name=name, trials=qualified, violations=violations, worst_margin=float(worst), tolerance=tol
    )


def _oracle_min_thermal(trials, seed, modes=4, max_squeeze=1.5):
    def margin(rng):
        nbars = rng.uniform(0.0, 3.0, size=modes)
        state = G.product_thermal(nbars)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        nth_out = G.thermal_excitation(G.reduce(G.apply_unitary(state, u), [0]))
        return nth_out - float(np.min(nbars))

    return _oracle_run("min-thermal-excitation", trials, seed, 1e-9, margin)


def _oracle_eigenvalue_domination(trials, seed, dim=4):
    def margin(rng):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _, vh = np.linalg.svd(z)
        l = u @ np.diag(1.0 + rng.uniform(0.0, 2.0, dim)) @ vh
        w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        o = w @ w.conj().T
        ev_in = np.sort(np.linalg.eigvalsh(o))
        ev_out = np.sort(np.linalg.eigvalsh(l @ o @ l.conj().T))
        return float(np.min(ev_out - ev_in))

    return _oracle_run("eigenvalue-domination", trials, seed, 1e-10, margin)


def _oracle_majorization(trials, seed, modes=4, max_squeeze=1.5):
    def margin(rng):
        nbars = rng.uniform(0.05, 3.0, size=modes)
        state = G.product_thermal(nbars)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        out = np.sort(G.apply_unitary(state, u).mean_excitations)
        asc_in = np.sort(nbars)
        return float(np.min(np.cumsum(out) - np.cumsum(asc_in)))

    return _oracle_run("excitation-majorization", trials, seed, 1e-9, margin)


def _oracle_small_passive(j, rng, eps):
    a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    h = (a + a.conj().T) / 2
    h /= np.linalg.norm(h)
    return G.make_passive(expm(1j * eps * h))


def _oracle_near_optimal(trials, seed, eps=1e-4):
    spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.6, 2.3))
    chain = hbac.build_swap_chain(spec)
    sigma_star = hbac.entropy_production_star(spec)
    floor = spec.nbar(spec.omegas[-1])
    n = spec.n_machine + 1
    system = spec.initial_system()
    start = G.tensor(system, spec.machine_state())
    s_in = G.vn_entropy_single_mode(G.thermal_excitation(system))

    def margin(rng):
        # One round through the public operations on the joint state.
        p_a = _oracle_small_passive(n, rng, eps)
        u = G.compose(p_a, G.compose(chain, _oracle_small_passive(n, rng, eps)))
        joint = G.apply_unitary(start, u)
        nth = G.thermal_excitation(G.reduce(joint, [0]))
        if abs(nth - floor) >= 1e-6:
            return None
        heat = float(np.dot(spec.omegas, joint.mean_excitations[1:] - spec.machine_nbars))
        s_drop = s_in - G.vn_entropy_single_mode(nth)
        return spec.beta * heat - s_drop - sigma_star

    return _oracle_run("near-optimal-dissipation", trials, seed, 1e-6, margin)


ORACLES = [
    (suites.min_thermal_excitation_suite, _oracle_min_thermal),
    (suites.eigenvalue_domination_suite, _oracle_eigenvalue_domination),
    (suites.excitation_majorization_suite, _oracle_majorization),
    (suites.near_optimal_dissipation_suite, _oracle_near_optimal),
]


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_small_run_passes(self, suite):
        result = suite(5, 11)
        assert result.trials == 5
        assert result.violations == 0 and result.passed

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_raise(self, suite, trials):
        with pytest.raises(DomainError):
            suite(trials, 1)

    @pytest.mark.parametrize("suite", SUITES)
    def test_negative_seed_raises_naming_the_key(self, suite):
        with pytest.raises(DomainError, match=r"seed must be >= 0, got -1"):
            suite(5, -1)
        with pytest.raises(DomainError, match=r"seed must be >= 0, got -1"):
            suites.corrupted_unitary_detected(-1)

    def test_no_qualifying_trial_does_not_pass(self):
        # Perturbations this strong never land on the cooling limit.
        result = suites.near_optimal_dissipation_suite(20, 3, eps=0.3)
        assert result.trials == 0 and result.violations == 0
        assert not result.passed
        assert result.passed is False


class TestChunkedParity:
    """Stacked chunks reproduce the per-trial oracle bit for bit."""

    @pytest.mark.parametrize("suite, oracle", ORACLES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("trials", [1, suites.CHUNK - 1, suites.CHUNK, suites.CHUNK + 1])
    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_result_equals_oracle(self, suite, oracle, trials, seed):
        assert suite(trials, seed) == oracle(trials, seed)

    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_draw_cap_equals_oracle(self, trials, seed):
        # No draw qualifies at eps = 0.3, so all 50 * trials draws are made.
        result = suites.near_optimal_dissipation_suite(trials, seed, eps=0.3)
        assert result == _oracle_near_optimal(trials, seed, eps=0.3)
        assert result.trials == 0 and not result.passed
