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
# Each oracle gives a trial's margin from the rng (None for a draw that does
# not qualify); the suites evaluate stacked chunks, and every margin and the
# folded result must equal these exactly.


def _oracle_margins(margin, trials, seed):
    """The margin of every draw, in draw order, until ``trials`` qualify."""
    rng = np.random.default_rng(seed)
    out = []
    qualified = 0
    for _ in range(50 * trials):
        out.append(margin(rng))
        qualified += out[-1] is not None
        if qualified == trials:
            break
    return out


def _oracle_result(name, tol, margins):
    kept = [m for m in margins if m is not None]
    return suites.SuiteResult(
        name=name, trials=len(kept), violations=sum(m < -tol for m in kept),
        worst_margin=float(min(kept, default=math.inf)), tolerance=tol,
    )


def _oracle_min_thermal(modes=4, max_squeeze=1.5):
    def margin(rng):
        nbars = rng.uniform(0.0, 3.0, size=modes)
        state = G.product_thermal(nbars)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        nth_out = G.thermal_excitation(G.reduce(G.apply_unitary(state, u), [0]))
        return nth_out - float(np.min(nbars))

    return margin


def _oracle_eigenvalue_domination(dim=4):
    def margin(rng):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _, vh = np.linalg.svd(z)
        l = u @ np.diag(1.0 + rng.uniform(0.0, 2.0, dim)) @ vh
        w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        o = w @ w.conj().T
        ev_in = np.sort(np.linalg.eigvalsh(o))
        ev_out = np.sort(np.linalg.eigvalsh(l @ o @ l.conj().T))
        return float(np.min(ev_out - ev_in))

    return margin


def _oracle_majorization(modes=4, max_squeeze=1.5):
    def margin(rng):
        nbars = rng.uniform(0.05, 3.0, size=modes)
        state = G.product_thermal(nbars)
        u = G.random_gaussian_unitary(modes, rng, max_squeeze=max_squeeze)
        out = np.sort(G.apply_unitary(state, u).mean_excitations)
        asc_in = np.sort(nbars)
        return float(np.min(np.cumsum(out) - np.cumsum(asc_in)))

    return margin


def _oracle_small_passive(j, rng, eps):
    a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    h = (a + a.conj().T) / 2
    h /= np.linalg.norm(h)
    return G.make_passive(expm(1j * eps * h))


def _oracle_near_optimal(eps=1e-4):
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

    return margin


# Each suite, its oracle, and its name and tolerance.
ORACLES = [
    pytest.param(suite, oracle, name, tol, id=f"{suite.__name__}-{oracle.__name__}")
    for suite, oracle, name, tol in [
        (suites.min_thermal_excitation_suite, _oracle_min_thermal,
         "min-thermal-excitation", 1e-9),
        (suites.eigenvalue_domination_suite, _oracle_eigenvalue_domination,
         "eigenvalue-domination", 1e-10),
        (suites.excitation_majorization_suite, _oracle_majorization,
         "excitation-majorization", 1e-9),
        (suites.near_optimal_dissipation_suite, _oracle_near_optimal,
         "near-optimal-dissipation", 1e-6),
    ]
]


def _recorded(monkeypatch, suite, *args, **kwargs):
    """A suite's result, the fields it draws and every margin of its chunks."""
    fields, margins = [], []
    run = suites._run_suite

    def recording(name, trials, seed, tol, suite_fields, suite_margins):
        fields.extend(suite_fields)

        def record(*bufs):
            out = suite_margins(*bufs)
            margins.extend(out)
            return out

        return run(name, trials, seed, tol, suite_fields, record)

    monkeypatch.setattr(suites, "_run_suite", recording)
    result = suite(*args, **kwargs)
    monkeypatch.setattr(suites, "_run_suite", run)
    return result, fields, margins


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

    @pytest.mark.parametrize("suite, oracle, name, tol", ORACLES)
    @pytest.mark.parametrize(
        "trials", [1, suites.CHUNK - 1, suites.CHUNK, suites.CHUNK + 1, 2 * suites.CHUNK + 3]
    )
    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_result_equals_oracle(self, suite, oracle, name, tol, trials, seed, monkeypatch):
        result, _, margins = _recorded(monkeypatch, suite, trials, seed)
        expected = _oracle_margins(oracle(), trials, seed)
        assert margins == expected
        assert result == _oracle_result(name, tol, expected)

    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_draw_cap_equals_oracle(self, trials, seed, monkeypatch):
        # No draw qualifies at eps = 0.3, so all 50 * trials draws are made.
        result, _, margins = _recorded(
            monkeypatch, suites.near_optimal_dissipation_suite, trials, seed, eps=0.3
        )
        expected = _oracle_margins(_oracle_near_optimal(eps=0.3), trials, seed)
        assert margins == expected == [None] * 50 * trials
        assert result == _oracle_result("near-optimal-dissipation", 1e-6, expected)
        assert result.trials == 0 and not result.passed

    @pytest.mark.parametrize("eps", [1e-4, 0.3, 1.0])
    def test_small_passives_equal_per_matrix(self, eps):
        # The last bits of the norms reach G, but not the margins at eps = 1e-4.
        x = np.random.default_rng(8).standard_normal((300, 2, 3, 3))
        stacked = suites._small_passive(x, eps).G
        rng = np.random.default_rng(8)
        for g in stacked:
            assert g.tobytes() == _oracle_small_passive(3, rng, eps).G.tobytes()

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("size", [1, 7])
    def test_chunk_buffers_equal_per_trial_draws(self, suite, size, monkeypatch):
        # The buffers hold each trial's uniform and normal draws, bit for bit.
        _, fields, _ = _recorded(monkeypatch, suite, 1, 0)
        bufs = suites._draw_chunk(np.random.default_rng(5), fields, size)
        rng = np.random.default_rng(5)
        trials = [
            [rng.standard_normal(shape) if span is None else rng.uniform(*span, size=shape)
             for shape, span in fields]
            for _ in range(size)
        ]
        for buf, column in zip(bufs, zip(*trials), strict=True):
            assert buf.tobytes() == np.stack(column).tobytes()

    def test_chunk_buffers_cover_every_span(self, monkeypatch):
        spans = {
            span for suite in SUITES for _, span in _recorded(monkeypatch, suite, 1, 0)[1]
        }
        assert spans == {None, (0.0, 3.0), (0.05, 3.0), (0.0, 2.0), (0.0, 1.5)}

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_result_does_not_depend_on_chunk(self, chunk, monkeypatch):
        trials = 2 * suites.CHUNK + 3
        runs = [(suite, (trials, 4), {}) for suite in SUITES]
        runs.append((suites.near_optimal_dissipation_suite, (7, 4), {"eps": 0.3}))
        expected = [suite(*args, **kwargs) for suite, args, kwargs in runs]
        monkeypatch.setattr(suites, "CHUNK", chunk)
        assert [suite(*args, **kwargs) for suite, args, kwargs in runs] == expected
