import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from bosecool import gaussian as G
from bosecool import hbac
from bosecool.errors import BosecoolError, DimensionMismatchError, DomainError, InvalidStateError


def small_random_passive(j, rng, eps=1e-4):
    a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    h = (a + a.conj().T) / 2
    h /= np.linalg.norm(h)
    return G.make_passive(expm(1j * eps * h))


class TestMachineSpec:
    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0, 1.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            hbac.MachineSpec(beta=-1.0, omega0=1.0, omegas=(2.0,))

    @pytest.mark.parametrize(
        "beta, omega0, omegas",
        [
            (math.nan, 1.0, (2.0,)),
            (1.0, math.nan, (2.0,)),
            (1.0, 1.0, (1.5, math.nan, 2.5)),
            (math.inf, 1.0, (2.0,)),
            (1.0, 1.0, (math.inf,)),
        ],
    )
    def test_rejects_nonfinite(self, beta, omega0, omegas):
        with pytest.raises(DomainError, match="finite"):
            hbac.MachineSpec(beta=beta, omega0=omega0, omegas=omegas)

    def test_rejects_overflowing_occupation(self):
        hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(700.0,))
        with pytest.raises(DomainError):
            hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(800.0,))

    @pytest.mark.parametrize(
        "beta, omega0, omegas",
        [
            (1e-162, 1e-162, (1e-161,)),  # beta*omega0 = 0: 1/expm1 divides by zero
            (1e-200, 1e-200, (2e-200,)),
            (1e-320, 1.0, (2.0,)),  # 1/(beta*omega0) = inf
            (1.0, 1.0 / sys.float_info.max, (2.0,)),  # 1/low overflows at the bound itself
            (1.0, 1.0, (1e-320, 2.0)),  # the lowest machine mode
        ],
    )
    def test_rejects_underflowing_gap(self, beta, omega0, omegas):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="underflows the thermal occupation"):
                hbac.MachineSpec(beta=beta, omega0=omega0, omegas=omegas)

    def test_smallest_finite_gap_accepted(self):
        low = math.nextafter(1.0 / sys.float_info.max, math.inf)
        spec = hbac.MachineSpec(beta=1.0, omega0=low, omegas=(1.0,))
        assert math.isfinite(spec.nbar_system)

    def test_j0_skips_low_modes(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(0.5, 2.0, 3.0))
        assert spec.j0 == 2
        assert spec.cooling_possible

    def test_no_cooling_flag(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=2.0, omegas=(0.5, 1.0))
        assert spec.j0 is None
        assert not spec.cooling_possible


class TestCoolingLimit:
    def test_equal_frequencies_no_gain(self):
        spec = hbac.MachineSpec(beta=0.7, omega0=1.0, omegas=(1.0,))
        beta_star, lam = hbac.gaussian_cooling_limit(spec)
        assert lam == 1.0
        assert beta_star == pytest.approx(0.7)

    def test_lambda_ratio(self):
        spec = hbac.MachineSpec(beta=0.3, omega0=1.0, omegas=(120.8,))
        assert hbac.gaussian_cooling_limit(spec)[1] == pytest.approx(120.8)

    def test_limit_occupation(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,))
        beta_star, _ = hbac.gaussian_cooling_limit(spec)
        nbar_limit = 1.0 / math.expm1(beta_star * spec.omega0)
        assert nbar_limit == pytest.approx(1.0 / (math.e**2 - 1.0), rel=1e-12)


class TestSwapChain:
    def test_single_mode_single_swap(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,))
        chain = hbac.build_swap_chain(spec)
        np.testing.assert_allclose(chain.G, G.make_swap(0, 1, 2).G, atol=1e-14)

    def test_chain_skips_inert_mode(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(0.5, 2.0, 3.0))
        chain = hbac.build_swap_chain(spec)
        assert spec.j0 == 2
        ref = G.compose(G.make_swap(0, 3, 4), G.make_swap(0, 2, 4))
        np.testing.assert_allclose(chain.G, ref.G, atol=1e-14)

    def test_one_round_reaches_machine_top(self):
        spec = hbac.MachineSpec(beta=0.8, omega0=1.0, omegas=(1.5, 2.5))
        chain = hbac.build_swap_chain(spec)
        joint = G.tensor(spec.initial_system(), spec.machine_state())
        out = G.reduce(G.apply_unitary(joint, chain), [0])
        assert G.thermal_excitation(out) == pytest.approx(
            spec.nbar(2.5), rel=1e-13
        )

    def test_no_cooling_returns_identity(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=2.0, omegas=(1.0,))
        chain = hbac.build_swap_chain(spec)
        assert not spec.cooling_possible
        np.testing.assert_allclose(chain.G, np.eye(4), atol=1e-15)


def _swap_by_swap(spec):
    """The chain as N - j0 + 1 composed swaps: (0, j0) first, (0, N) last."""
    n = spec.n_machine
    u = G.make_swap(0, spec.j0, n + 1)
    for j in range(spec.j0 + 1, n + 1):
        u = G.compose(G.make_swap(0, j, n + 1), u)
    return u


_rng = np.random.default_rng(2020)
RANDOM_SPECS = [hbac.random_spec(_rng, max_machine_modes=8) for _ in range(240)]


class TestSwapChainPermutation:
    """The one-permutation chain has the bits of the swap-by-swap composition."""

    @pytest.mark.parametrize(
        "spec",
        [
            hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=tuple(1.5 + 0.5 * k for k in range(5))),
            hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(0.5, 1.0, 1.5, 2.5)),
            hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(0.3, 0.7, 1.0, 4.0)),
            hbac.MachineSpec(beta=0.7, omega0=1.0, omegas=(1.0, 1.0, 3.0)),
            hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,)),
        ]
        + RANDOM_SPECS,
    )
    def test_bits_match_composed_swaps(self, spec):
        chain, ref = hbac.build_swap_chain(spec), _swap_by_swap(spec)
        assert chain.G.tobytes() == ref.G.tobytes()
        assert chain.d.tobytes() == ref.d.tobytes()

    def test_random_specs_include_inert_modes(self):
        assert sum(s.j0 > 1 for s in RANDOM_SPECS) >= 20
        assert max(s.n_machine for s in RANDOM_SPECS) == 8

    @pytest.mark.parametrize("omegas", [(0.3, 0.7), (0.5, 1.0), (1.0,)])
    def test_no_cooling_is_identity(self, omegas):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=omegas)
        chain, ident = hbac.build_swap_chain(spec), G.identity_unitary(len(omegas) + 1)
        assert chain.G.tobytes() == ident.G.tobytes()
        assert chain.d.tobytes() == ident.d.tobytes()


def relative_entropy(nbar_a, nbar_b):
    """D[tau_a || tau_b] as the two-point chain of ``gaussian.relative_entropy_chain``."""
    return G.relative_entropy_chain(np.array([nbar_a, nbar_b]))


class TestRelativeEntropy:
    def test_zero_at_equal(self):
        assert relative_entropy(2.0, 2.0) == 0.0

    def test_matches_series_oracle(self):
        # D = sum p_n ln(p_n/q_n) with geometric p (nbar_a) and q (nbar_b).
        na, nb = 10.0, 1.0
        n = np.arange(6000)
        logp = n * math.log(na) - (n + 1) * math.log(na + 1)
        logq = n * math.log(nb) - (n + 1) * math.log(nb + 1)
        series = float(np.sum(np.exp(logp) * (logp - logq)))
        assert relative_entropy(na, nb) == pytest.approx(series, rel=1e-12)
        assert series == pytest.approx(
            11 * math.log(2 / 11) + 10 * math.log(10), rel=1e-12
        )

    def test_asymmetric(self):
        assert relative_entropy(1.0, 2.0) != pytest.approx(relative_entropy(2.0, 1.0))

    def test_positive_off_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.uniform(0.05, 8.0, size=2)
            d = relative_entropy(a, b)
            assert d >= 0.0
            if abs(a - b) > 1e-6:
                assert d > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            relative_entropy(0.0, 1.0)

    @pytest.mark.parametrize("nbars", [(1.0, math.nan), (-1.0, 1.0), (2.0, 1.0, 0.0)])
    def test_rejects_nan_and_nonpositive_anywhere(self, nbars):
        with pytest.raises(DomainError, match="occupations must be positive"):
            G.relative_entropy_chain(np.array(nbars))


def mp_relative_entropy_chain(gaps):
    """50-digit sum of D[tau_a || tau_b] along a chain of gaps beta*omega."""
    with mpmath.workdps(50):
        gaps = [mpmath.mpf(g) for g in gaps]
        total = mpmath.mpf(0)
        for a, b in zip(gaps, gaps[1:]):
            total += mpmath.log(mpmath.expm1(-a) / mpmath.expm1(-b)) + (b - a) / mpmath.expm1(a)
        return total


class TestHotBathReference:
    """sigma* and the round-1 Sigma of a swap chain (which equals sigma*)
    against a 50-digit reference, out to beta*omega near 1e-12, where the
    occupations are about 1e12 and an occupation form of D loses digits."""

    @pytest.mark.parametrize("beta", [1.0, 1e-4, 1e-8, 1e-12])
    def test_sigma_star_and_round_one_sigma(self, beta):
        spec = hbac.MachineSpec(beta=beta, omega0=1.0, omegas=(1.5, 2.5))
        ref = mp_relative_entropy_chain([mpmath.mpf(beta) * w for w in (1, 1.5, 2.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            star = hbac.entropy_production_star(spec)
            sigma = hbac.run_protocol(spec, hbac.build_swap_chain(spec), 1).final.sigma
        assert float(abs(star - ref) / ref) < 1e-13
        assert float(abs(sigma - ref) / ref) < 1e-13


class TestEntropyProductionStar:
    def test_single_mode(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,))
        na, nb = spec.nbar(1.0), spec.nbar(2.0)
        # D[tau_a || tau_b] in occupations, well conditioned at these O(1) values.
        expected = (na + 1.0) * math.log((nb + 1.0) / (na + 1.0)) + na * math.log(na / nb)
        assert hbac.entropy_production_star(spec) == pytest.approx(expected, rel=1e-14)

    def test_degenerate_gaps_contribute_zero(self):
        base = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,))
        padded = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0, 2.0, 2.0))
        assert hbac.entropy_production_star(padded) == pytest.approx(
            hbac.entropy_production_star(base), rel=1e-14
        )

    def test_no_cooling_returns_zero(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=3.0, omegas=(1.0,))
        assert hbac.entropy_production_star(spec) == 0.0

    def test_inert_modes_change_nothing(self):
        spec = hbac.MachineSpec(beta=0.9, omega0=1.0, omegas=(0.3, 0.9, 1.7, 2.4))
        trimmed = hbac.MachineSpec(beta=0.9, omega0=1.0, omegas=(1.7, 2.4))
        assert hbac.entropy_production_star(spec) == pytest.approx(
            hbac.entropy_production_star(trimmed), rel=1e-14
        )
        assert hbac.gaussian_cooling_limit(spec)[0] == pytest.approx(
            hbac.gaussian_cooling_limit(trimmed)[0], rel=1e-14
        )

    def test_matches_protocol_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            spec = hbac.random_spec(rng)
            trace = hbac.run_protocol(spec, hbac.build_swap_chain(spec), 1)
            assert trace.final.sigma == pytest.approx(
                hbac.entropy_production_star(spec), abs=1e-9
            )


class TestRunProtocol:
    def test_identity_recharger_flat(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0, 3.0))
        trace = hbac.run_protocol(spec, G.identity_unitary(3), 4)
        np.testing.assert_allclose(trace.nth, spec.nbar_system, rtol=1e-13)
        np.testing.assert_allclose(trace.sigma, 0.0, atol=1e-12)
        np.testing.assert_allclose(trace.heat, 0.0, atol=1e-13)

    def test_swap_chain_saturates_in_one_round(self):
        spec = hbac.MachineSpec(beta=1.3, omega0=0.9, omegas=(1.2, 2.2))
        trace = hbac.run_protocol(spec, hbac.build_swap_chain(spec), 5)
        beta_star, _ = hbac.gaussian_cooling_limit(spec)
        assert trace.beta_eff[0] == pytest.approx(beta_star, rel=1e-12)
        np.testing.assert_allclose(trace.nth, trace.nth[0], rtol=1e-13)

    def test_beam_splitter_lands_between(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,))
        bs = G.make_beam_splitter(0, 1, 2, 0.6)
        trace = hbac.run_protocol(spec, bs, 1)
        assert spec.nbar(2.0) < trace.final.nth < spec.nbar_system

    COLUMNS = ("nth", "beta_eff", "heat", "sigma", "sigma_round")

    @pytest.mark.parametrize("rounds", [1, 3, 1030])
    def test_columns_hold_one_python_float_per_round(self, rounds):
        # 1030 rounds run on past the system's fixed point.
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.5, 2.5))
        trace = hbac.run_protocol(spec, G.make_beam_splitter(0, 2, 3, 0.4), rounds)
        for name in self.COLUMNS:
            column = getattr(trace, name)
            assert type(column) is list and len(column) == rounds
            assert all(type(x) is float for x in column)
        final = trace.final
        assert type(final) is hbac.RoundRecord and final.round_index == rounds
        for name in self.COLUMNS:
            assert getattr(final, name) == getattr(trace, name)[-1]

    def test_dimension_mismatch(self):
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,))
        with pytest.raises(DimensionMismatchError):
            hbac.run_protocol(spec, G.identity_unitary(3), 1)

    def test_second_law_random_rechargers(self):
        rng = np.random.default_rng(8)
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.5, 2.5))
        for _ in range(20):
            u = G.random_gaussian_unitary(3, rng, max_squeeze=0.8)
            trace = hbac.run_protocol(spec, u, 5)
            assert min(trace.sigma_round) >= -1e-10

    def test_sigma_matches_decomposition(self):
        # sigma_round = D[rho'_M || tau_M] + I_{S:M}, rebuilt every round from
        # the joint moment matrix and its symplectic spectra, independently
        # of run_protocol's heat and single-mode entropy path.
        rng = np.random.default_rng(13)
        spec = hbac.MachineSpec(beta=0.8, omega0=1.0, omegas=(1.4, 2.1))
        machine = spec.machine_state()
        log_z = float(np.sum(np.log1p(spec.machine_nbars)))  # ln Z of tau_M
        for _ in range(10):
            u = G.random_gaussian_unitary(3, rng, max_squeeze=0.8)
            trace = hbac.run_protocol(spec, u, 3)
            system = spec.initial_system()
            for sigma_round in trace.sigma_round:
                joint = G.apply_unitary(G.tensor(system, machine), u)
                system = G.reduce(joint, [0])
                machine_out = G.reduce(joint, [1, 2])
                s_machine = hbac.state_entropy(machine_out)
                energy = spec.beta * float(np.dot(spec.omegas, machine_out.mean_excitations))
                relent = energy + log_z - s_machine
                mutual = hbac.state_entropy(system) + s_machine - hbac.state_entropy(joint)
                assert sigma_round == pytest.approx(relent + mutual, abs=1e-8)

    def test_thermal_bound_random_rechargers(self):
        # No Gaussian recharger beats the top machine occupation, any round count.
        rng = np.random.default_rng(15)
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.8, 2.6))
        floor = spec.nbar(2.6)
        for _ in range(15):
            u = G.random_gaussian_unitary(3, rng, max_squeeze=1.0)
            trace = hbac.run_protocol(spec, u, 20)
            assert np.min(trace.nth) >= floor - 1e-9


def record_reprs(trace):
    """The repr of each round of ``trace`` as a ``RoundRecord``, which shows
    the repr of every field."""
    columns = zip(trace.nth, trace.beta_eff, trace.heat, trace.sigma, trace.sigma_round)
    return [repr(hbac.RoundRecord(l, *row)) for l, row in enumerate(columns, start=1)]


def reference_trace(spec, recharger, rounds):
    """The round loop written with the public operations: (record reprs, error)."""
    machine = spec.machine_state()
    system = spec.initial_system()
    s_in = G.vn_entropy_single_mode(G.thermal_excitation(system))
    records, heat, sigma = [], 0.0, 0.0
    try:
        for l in range(1, rounds + 1):
            joint = G.apply_unitary(G.tensor(system, machine), recharger)
            system = G.reduce(joint, [0])
            nth = G.thermal_excitation(system)
            s_out = G.vn_entropy_single_mode(nth)
            gains = joint.mean_excitations[1:] - spec.machine_nbars
            q, sigma_round = hbac.round_heat_and_sigma(spec, gains, s_in - s_out)
            s_in = s_out
            heat += q
            sigma += sigma_round
            beta_eff = G.effective_beta(nth, spec.omega0)
            records.append(repr(hbac.RoundRecord(l, nth, beta_eff, heat, sigma, sigma_round)))
    except BosecoolError as exc:
        return records, exc
    return records, None


def squeeze_displace(n_machine):
    """Displacement . squeezer . beam splitter on the system and the top machine
    mode: nu and alpha are nonzero in every round, and the squeezing grows."""
    j = n_machine + 1
    return G.compose(
        G.make_displacement([0.3 + 0.2j] + [0.0] * (j - 2) + [-0.1j]),
        G.compose(G.make_squeezer([0.3] + [0.0] * (j - 2) + [0.1]),
                  G.make_beam_splitter(0, j - 1, j, 0.4)),
    )


def reference_cases():
    rng = np.random.default_rng(19)
    for k in range(5):
        spec = hbac.random_spec(rng)
        j = spec.n_machine + 1
        yield f"swap-chain-{k}", spec, hbac.build_swap_chain(spec)
        yield f"identity-{k}", spec, G.identity_unitary(j)
        yield f"beam-splitter-{k}", spec, G.make_beam_splitter(0, j - 1, j, 0.4)
        for i in range(3):
            yield f"random-{k}-{i}", spec, G.random_gaussian_unitary(j, rng, max_squeeze=0.6)
        yield f"squeeze-displace-{k}", spec, squeeze_displace(spec.n_machine)
    spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
    yield "six-mode-swap-chain", spec, hbac.build_swap_chain(spec)
    yield "parity-squeeze-displace", PARITY_SPEC, squeeze_displace(1)


# The squeeze-displace recharger of the parity inputs runs on --omegas 2.0.
PARITY_SPEC = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(2.0,))


def never_repeating(n_machine):
    """The phase e^{0.3i} on the system, then a system displacement of 0.1."""
    phase = np.eye(n_machine + 1, dtype=complex)
    phase[0, 0] = np.exp(0.3j)
    return G.compose(G.make_displacement([0.1] + [0.0] * n_machine), G.make_passive(phase))


# The beam splitter of the parity inputs runs on --omegas 1.5,2.5,3.5.
THREE_MODE_SPEC = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.5, 2.5, 3.5))

# A system at nbar = 1e300 and a machine mode at 2e10.
HOT_SPEC = hbac.MachineSpec(beta=1e-310, omega0=1e10, omegas=(2e10,))


def long_cases():
    """``reference_cases`` and the beam splitter of the parity inputs (--theta 0.4)."""
    yield from reference_cases()
    yield "three-mode-beam-splitter", THREE_MODE_SPEC, G.make_beam_splitter(0, 3, 4, 0.4)


PERFBENCH_SPEC = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.5, 2.5, 3.5, 4.5, 5.5, 6.5))


class TestRoundLoopReference:
    # run_protocol steps one joint moment buffer; every field of every record
    # must still be the bits of the loop over tensor, apply_unitary and reduce.
    @pytest.mark.parametrize(
        "spec, recharger", [pytest.param(*case[1:], id=case[0]) for case in reference_cases()]
    )
    def test_records_match_public_operations(self, spec, recharger):
        rounds = 120
        expected, error = reference_trace(spec, recharger, rounds)
        if error is None:
            trace = hbac.run_protocol(spec, recharger, rounds)
        else:
            with pytest.raises(type(error)) as raised:
                hbac.run_protocol(spec, recharger, len(expected) + 1)
            assert str(raised.value) == str(error)
            if not expected:
                return
            trace = hbac.run_protocol(spec, recharger, len(expected))
        assert record_reprs(trace) == expected

    def test_squeezing_recharger_is_refused(self):
        # Its system is refused within 120 rounds, so the case above compares
        # the error text and round of both loops.
        _, error = reference_trace(PARITY_SPEC, squeeze_displace(1), 120)
        assert isinstance(error, InvalidStateError)

    def test_perfbench_trace(self):
        # The simulate-gaussian run of perfbench's gaussian workload.
        assert_matches_reference(PERFBENCH_SPEC, hbac.build_swap_chain(PERFBENCH_SPEC), 500)

    @pytest.mark.parametrize(
        "spec, recharger", [pytest.param(*case[1:], id=case[0]) for case in reference_cases()]
    )
    def test_one_round(self, spec, recharger):
        assert_matches_reference(spec, recharger, 1)

    def test_overflow_refusal_before_round_one(self):
        # limit --omegas 1e308 --beta 1e-308: the system's mu, 1/expm1(1e-308)
        # + 1/2, overflows when symmetrized as the start state is stored.
        spec = hbac.MachineSpec(beta=1e-308, omega0=1.0, omegas=(1e308,))
        for loop in (reference_trace, hbac.run_protocol):
            with pytest.raises(DomainError) as raised:
                loop(spec, hbac.build_swap_chain(spec), 1)
            assert str(raised.value) == "moments are not finite (overflow)"

    def test_round_one_overflow_refusal(self):
        # A system at mu = 1e307 squeezed by r = 2: G M G^dag overflows, and
        # the refusal is the only report (warnings are errors here).
        spec = hbac.MachineSpec(beta=1e-307, omega0=1.0, omegas=(2.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected, error = assert_matches_reference(spec, G.make_squeezer([2.0, 0.0]), 3)
        assert expected == [] and str(error) == "moments are not finite (overflow)"

    def test_overflowing_squares_are_refused(self):
        # r = 1 on mu = 1e307: after round 1, mu^2 and |nu|^2 both overflow and
        # mu^2 - |nu|^2 is nan, refused in both loops.
        spec = hbac.MachineSpec(beta=1e-307, omega0=1.0, omegas=(2.0,))
        expected, error = assert_matches_reference(spec, G.make_squeezer([1.0, 0.0]), 3)
        assert expected == [] and isinstance(error, InvalidStateError)
        assert str(error).startswith("double precision cannot resolve the uncertainty test")

    # (case, rounds).  130 rounds: refusals late in a trace.  The beam
    # splitter's system repeats from round 215 on, after round 214, the last
    # one evaluated: the trace ends before, on and after it.  The swap
    # chain's repeats from round 3 on.
    LONG_CASES = [
        *((case, 130) for case in ("six-mode-swap-chain", "random-1-2", "squeeze-displace-3",
                                   "parity-squeeze-displace")),
        *(("three-mode-beam-splitter", rounds) for rounds in (213, 214, 215, 300)),
        *(("six-mode-swap-chain", rounds) for rounds in (1025, 2049)),
    ]

    @pytest.mark.parametrize(
        "case, rounds", LONG_CASES, ids=[f"{case}-{rounds}" for case, rounds in LONG_CASES]
    )
    def test_long_traces_match_reference(self, case, rounds):
        spec, recharger = next(c[1:] for c in long_cases() if c[0] == case)
        assert_matches_reference(spec, recharger, rounds)

    # (case, block, rounds): the cases of ``LONG_CASES``, cut every ``block``
    # rounds.  The beam splitter's cuts fall before, on and after round 214,
    # its last evaluated round; the swap chain's fall long after round 2.
    BLOCK_CASES = [
        *((case, block, 130)
          for case in ("six-mode-swap-chain", "random-1-2", "squeeze-displace-3",
                       "parity-squeeze-displace")
          for block in (1, 2, 5, 64)),
        *(("three-mode-beam-splitter", block, 300) for block in (1, 64, 213, 214, 1024)),
        *(("six-mode-swap-chain", 1024, rounds) for rounds in (1025, 2049)),
    ]

    @pytest.mark.parametrize("case, block, rounds", BLOCK_CASES, ids=[
        f"{case}-{block}" + (f"-{rounds}-rounds" if rounds != 130 else "")
        for case, block, rounds in BLOCK_CASES
    ])
    def test_records_do_not_depend_on_block_size(self, case, block, rounds):
        # A run of k rounds is the first k records of a longer run, for every
        # cut k = block, 2 block, ..., rounds: the fixed point and the
        # cumulative sums carry nothing that depends on where the run ends.
        # A cut after the reference's refusal is refused with its text.
        spec, recharger = next(c[1:] for c in long_cases() if c[0] == case)
        expected, error = assert_matches_reference(spec, recharger, rounds)
        for k in sorted({*range(block, rounds + 1, block), rounds}):
            if k <= len(expected):
                assert record_reprs(hbac.run_protocol(spec, recharger, k)) == expected[:k]
            else:
                with pytest.raises(type(error)) as raised:
                    hbac.run_protocol(spec, recharger, k)
                assert str(raised.value) == str(error)

    @pytest.mark.parametrize("spec, recharger, rounds, evaluated", [
        (PERFBENCH_SPEC, hbac.build_swap_chain(PERFBENCH_SPEC), 500, 2),
        (PERFBENCH_SPEC, G.identity_unitary(7), 500, 1),
        (THREE_MODE_SPEC, G.make_beam_splitter(0, 3, 4, 0.4), 300, 214),
        (THREE_MODE_SPEC, never_repeating(3), 500, 500),
    ], ids=["swap-chain", "identity", "beam-splitter", "never-repeating"])
    def test_rounds_stop_at_the_fixed_point(self, monkeypatch, spec, recharger, rounds, evaluated):
        # Once a round writes back the system's entries it read, bit for bit,
        # every later round repeats it and none is evaluated.  The phase
        # e^{0.3i} turns alpha without settling it, so there every round is.
        calls = []
        evolve = G._evolve
        monkeypatch.setattr(G, "_evolve", lambda *args: calls.append(args) or evolve(*args))
        trace = hbac.run_protocol(spec, recharger, rounds)
        assert len(calls) == evaluated
        monkeypatch.undo()
        expected, error = reference_trace(spec, recharger, rounds)
        assert error is None and record_reprs(trace) == expected

    @pytest.mark.parametrize("spec, recharger, refused", [
        (HOT_SPEC, hbac.build_swap_chain(HOT_SPEC), 1),
        (PARITY_SPEC, G.make_displacement([0.0, 1e200]), 1),
        (PARITY_SPEC, G.make_displacement([0.0, 1e153]), 90),
    ], ids=["hot-swap-chain", "displaced-machine", "repeated-round"])
    def test_overflowing_heat_is_refused(self, spec, recharger, refused):
        # The swap chain hands 5e299 excitations to a mode at 2e10; a machine
        # displaced by 1e200 gains 1e400; one displaced by 1e153 takes 2e306
        # a round, and the sum overflows in round 90, 89 rounds after the
        # system's fixed point.  Refused, with no numpy warning, where the
        # reference loop records inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as raised:
                hbac.run_protocol(spec, recharger, refused + 1)
        assert str(raised.value) == f"heat or entropy production is not finite in round {refused}"
        if refused > 1:
            assert_matches_reference(spec, recharger, refused - 1)

    def test_overflowing_mu_square_is_refused(self):
        # mu = 1e200 squeezed by r = 1e-47: mu^2 overflows, |nu|^2 = 4e306
        # does not, and mu^2 - |nu|^2 = inf is refused in both loops.
        spec = hbac.MachineSpec(beta=1e-200, omega0=1.0, omegas=(2.0,))
        expected, error = assert_matches_reference(spec, G.make_squeezer([1e-47, 0.0]), 3)
        assert expected == [] and str(error) == (
            "double precision cannot resolve the uncertainty test mu^2 - |nu|^2 >= 1/4 at this"
            " squeezing: mu = 1e+200, |nu| = 2e+153"
        )

    def test_unresolvable_squeezing_is_named(self):
        # The parity run reaches mu = |nu| = 3.5e15 at round 83, where
        # mu^2 - |nu|^2 has a rounding error far above the distance to 1/4.
        recharger = squeeze_displace(1)
        assert len(hbac.run_protocol(PARITY_SPEC, recharger, 82).nth) == 82
        with pytest.raises(InvalidStateError) as raised:
            hbac.run_protocol(PARITY_SPEC, recharger, 83)
        assert str(raised.value) == (
            "double precision cannot resolve the uncertainty test mu^2 - |nu|^2 >= 1/4 at this"
            " squeezing: mu = 3542125716083375.5, |nu| = 3542125716083375.5"
        )


def assert_matches_reference(spec, recharger, rounds):
    """run_protocol against ``reference_trace``: records, error type and text;
    returns the reference's (record reprs, error)."""
    expected, error = reference_trace(spec, recharger, rounds)
    if error is not None:
        with pytest.raises(type(error)) as raised:
            hbac.run_protocol(spec, recharger, rounds)
        assert str(raised.value) == str(error)
    if expected:
        assert record_reprs(hbac.run_protocol(spec, recharger, len(expected))) == expected
    return expected, error


class TestNearOptimalRechargers:
    def test_sigma_floor_near_swap_chain(self):
        # Rechargers that still reach the cooling limit cannot beat the
        # swap-chain entropy production.
        rng = np.random.default_rng(31)
        spec = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.6, 2.3))
        chain = hbac.build_swap_chain(spec)
        sigma_star = hbac.entropy_production_star(spec)
        floor = spec.nbar(2.3)
        tested = 0
        for _ in range(60):
            u = G.compose(
                small_random_passive(3, rng),
                G.compose(chain, small_random_passive(3, rng)),
            )
            trace = hbac.run_protocol(spec, u, 1)
            if abs(trace.final.nth - floor) < 1e-6:
                tested += 1
                assert trace.final.sigma >= sigma_star - 1e-6
        assert tested >= 30


class TestSymplecticSpectrum:
    def test_product_thermal_spectrum(self):
        s = G.product_thermal([0.3, 1.2, 2.7])
        np.testing.assert_allclose(
            hbac.symplectic_nbars(s), [0.3, 1.2, 2.7], atol=1e-12
        )

    def test_entropy_invariant_under_unitaries(self):
        rng = np.random.default_rng(19)
        s = G.product_thermal([0.4, 1.1])
        base = hbac.state_entropy(s)
        for _ in range(10):
            u = G.random_gaussian_unitary(2, rng)
            assert hbac.state_entropy(G.apply_unitary(s, u)) == pytest.approx(
                base, abs=1e-9
            )
