import math
import re
import sys
import warnings
from typing import NamedTuple

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


EPS = sys.float_info.epsilon


class Row(NamedTuple):
    """One round of a reference loop: the trace's columns, then what the
    bound on their rounding (``bounds``) reads."""

    nth: float
    beta_eff: float
    heat: float
    sigma: float
    n: float  # the system's excess mu - 1/2
    kappa: float  # (mu + |nu|)^2 / (mu^2 - |nu|^2) of the system
    turnover: float  # sum_k omega_k (mu'_kk + |alpha'_k|^2 + mu_kk): the heat's scale
    entropy: float  # of the system


def reference_trace(spec, recharger, rounds):
    """The round loop written with the public operations on the joint state,
    in double precision: (rows, error)."""
    machine = spec.machine_state()
    omegas = np.array(spec.omegas)
    system = spec.initial_system()
    s_in = G.vn_entropy_single_mode(G.thermal_excitation(system))
    rows, heat, sigma = [], 0.0, 0.0
    try:
        for _ in range(rounds):
            joint = G.apply_unitary(G.tensor(system, machine), recharger)
            system = G.reduce(joint, [0])
            nth = G.thermal_excitation(system)
            s_out = G.vn_entropy_single_mode(nth)
            excitations = joint.mean_excitations[1:]
            q = float(np.dot(spec.omegas, excitations - spec.machine_nbars))
            heat += q
            sigma += spec.beta * q - (s_in - s_out)
            s_in = s_out
            mu, nu = system.M[1, 1].real, abs(system.M[0, 1])
            rows.append(Row(
                nth, G.effective_beta(nth, spec.omega0), heat, sigma, mu - 0.5,
                (mu + nu) ** 2 / (mu * mu - nu * nu),
                float(omegas @ (excitations + 1.0 + spec.machine_nbars)), s_out,
            ))
    except BosecoolError as exc:
        return rows, exc
    return rows, None


def mp_reference(spec, recharger, rounds, dps=50):
    """``reference_trace``'s rows from a ``dps``-digit iteration of the joint
    moments, r -> G r + d and M -> G M G^dag, from the same float64 G, d,
    frequencies and occupations; each row also holds the exact
    ``4 eps max(mu^2, |nu|^2) / det`` of the system (the refusal's ratio)."""
    with mpmath.workdps(dps):
        j = spec.n_machine + 1
        g = mpmath.matrix(recharger.G.tolist())
        g_dag = g.H
        d = [mpmath.mpc(z) for z in recharger.d.tolist()]
        half, beta = mpmath.mpf(0.5), mpmath.mpf(spec.beta)
        mu_machine = [mpmath.mpf(x) + half for x in spec.machine_nbars.tolist()]
        omegas = [mpmath.mpf(w) for w in spec.omegas]

        def entropy(n):
            return (n + 1) * mpmath.log(n + 1) - n * mpmath.log(n) if n else mpmath.mpf(0)

        alpha, mu, nu = mpmath.mpc(0), mpmath.mpf(spec.nbar_system) + half, mpmath.mpc(0)
        s_in, heat, sigma, rows = entropy(mu - half), 0, 0, []
        for _ in range(rounds):
            m = mpmath.diag([mu, *mu_machine, mu, *mu_machine])
            m[0, j], m[j, 0] = nu, mpmath.conj(nu)
            r = mpmath.matrix([alpha] + [0] * (j - 1) + [mpmath.conj(alpha)] + [0] * (j - 1))
            r, m = g * r, g * m * g_dag
            alpha, mu, nu = r[0] + d[0], mpmath.re(m[j, j]), m[0, j]
            det = mu * mu - abs(nu) ** 2
            nth = mpmath.sqrt(det) - half
            excitations = [abs(r[k] + d[k]) ** 2 + mpmath.re(m[j + k, j + k]) - half
                           for k in range(1, j)]
            q = sum(w * (x - mu_k + half) for w, x, mu_k in zip(omegas, excitations, mu_machine))
            s_out = entropy(nth)
            heat += q
            sigma += beta * q - (s_in - s_out)
            s_in = s_out
            rows.append((Row(
                float(nth), float(mpmath.log1p(1 / nth) / spec.omega0), float(heat),
                float(sigma), float(mu - half), float((mu + abs(nu)) ** 2 / det),
                float(sum(w * (x + 1 + mu_k - half)
                          for w, x, mu_k in zip(omegas, excitations, mu_machine))),
                float(s_out),
            ), float(4 * EPS * max(mu * mu, abs(nu) ** 2) / det)))
        return rows


def bounds(spec, recharger, rows, loops):
    """Per round l, the errors that rounding allows ``loops`` double-precision
    loops to part from exact arithmetic by, together: relative for nth and
    beta_eff, absolute for the cumulative heat and Sigma.

    A round forms each moment as a sum of at most 4J products (a row of G, M
    and a column of G^dag, M diagonal but for the system), each rounded with a
    relative error of at most 2 eps.  So the system's n = mu - 1/2 moves by at
    most 8J eps (n + 1/2) a round: a relative 8J eps (1 + 1/(2n)).  The
    excess form drops the 1/2 by C C^dag - (S S^dag)* = I, which the float64
    G meets to its residual ``res``: a further res/2.  The errors of l rounds
    add, and nth, like the heat's squeezing terms, amplifies the moments'
    relative error by at most the system's kappa.  The heat is a sum over the
    modes whose scale is ``turnover``; beta_eff's relative error is at most
    nth's, as (1 + n) ln(1 + 1/n) >= 1; Sigma telescopes to beta Q - S_0 + S_l,
    where S moves by at most n ln(1 + 1/n) <= 1 times nth's relative error,
    and its sums of l rounds round by 2 eps of their terms.
    """
    j = spec.n_machine + 1
    c, s = recharger.C, recharger.S
    res = float(np.max(np.abs(c @ c.conj().T - (s @ s.conj().T).conj() - np.eye(j))))
    n_min = min(row.n for row in rows)
    per_round = loops * (8 * j * EPS * (1 + 1 / (2 * n_min)) + res / (2 * n_min))
    kappa = turnover = sums = 0.0
    out = []
    for l, row in enumerate(rows, start=1):
        kappa = max(kappa, row.kappa)
        turnover += row.turnover
        sums += spec.beta * row.turnover + 2 * row.entropy
        nth = l * kappa * per_round
        heat = l * kappa * loops * (8 * j * EPS + res) * turnover
        out.append((nth, nth + 2 * EPS, heat, spec.beta * heat + nth + 2 * loops * EPS * sums))
    return out


def assert_within_bounds(trace, rows, spec, recharger, loops):
    """The trace's columns against the rows, within ``bounds``."""
    assert len(trace.nth) == len(rows)
    columns = zip(trace.nth, trace.beta_eff, trace.heat, trace.sigma)
    for l, (got, row, tol) in enumerate(
        zip(columns, rows, bounds(spec, recharger, rows, loops)), start=1
    ):
        assert abs(got[0] - row.nth) <= tol[0] * row.nth, ("nth", l, got[0], row.nth)
        assert abs(got[1] - row.beta_eff) <= tol[1] * row.beta_eff, ("beta_eff", l, got[1])
        assert abs(got[2] - row.heat) <= tol[2], ("heat", l, got[2], row.heat, tol[2])
        assert abs(got[3] - row.sigma) <= tol[3], ("sigma", l, got[3], row.sigma, tol[3])


# A number in an error text: the round of a refusal, or the moments it names.
NUMBER = re.compile(r"-?(?:inf|nan|\d+(?:\.\d+)?(?:e[-+]\d+)?)")


def assert_same_error(raised, error, rel):
    """The texts of two refusals: the same words, and numbers equal or within
    ``rel`` of each other (the moments of two loops)."""
    a, b = str(raised), str(error)
    assert type(raised) is type(error) and NUMBER.split(a) == NUMBER.split(b), (a, b)
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        assert x == y or abs(float(x) - float(y)) <= rel * abs(float(y)), (a, b)


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


# The beam splitter of the parity inputs runs on --omegas 1.5,2.5,3.5.
THREE_MODE_SPEC = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.5, 2.5, 3.5))

# A system at nbar = 1e300 and a machine mode at 2e10.
HOT_SPEC = hbac.MachineSpec(beta=1e-310, omega0=1e10, omegas=(2e10,))


def long_cases():
    """``reference_cases`` and the beam splitter of the parity inputs (--theta 0.4)."""
    yield from reference_cases()
    yield "three-mode-beam-splitter", THREE_MODE_SPEC, G.make_beam_splitter(0, 3, 4, 0.4)


PERFBENCH_SPEC = hbac.MachineSpec(beta=1.0, omega0=1.0, omegas=(1.5, 2.5, 3.5, 4.5, 5.5, 6.5))


# hbac.random_spec(default_rng(3)) and random_gaussian_unitary(6, default_rng(103)):
# mu and |nu| of the system grow together, round after round.
SQUEEZED_SPEC = hbac.random_spec(np.random.default_rng(3))
SQUEEZED = G.random_gaussian_unitary(6, np.random.default_rng(103))

# (case, rounds compared, refused in the next round): a swap chain, a beam
# splitter, a random active unitary, and two squeezing rechargers before
# their refusal.
MP_CASES = [("swap-chain-0", 40, False), ("beam-splitter-0", 40, False),
            ("random-0-0", 40, False), ("squeeze-displace-0", 27, True),
            ("squeezed", 21, True)]


class TestRoundLoopReference:
    # run_protocol iterates the system's one-mode channel in excess form; its
    # columns must stay within the rounding bound (``bounds``) of a 50-digit
    # iteration of the joint moments, and of the loop over tensor,
    # apply_unitary and reduce in double precision, refusing where it does.
    @pytest.mark.parametrize("case, rounds, refused", MP_CASES, ids=[c[0] for c in MP_CASES])
    def test_matches_mpmath_reference(self, case, rounds, refused):
        cases = {c[0]: c[1:] for c in reference_cases()} | {"squeezed": (SQUEEZED_SPEC, SQUEEZED)}
        spec, recharger = cases[case]
        reference = mp_reference(spec, recharger, rounds + refused)
        rows = [row for row, _ in reference]
        assert_within_bounds(hbac.run_protocol(spec, recharger, rounds), rows[:rounds], spec,
                             recharger, loops=1)
        # The exact moments of the last round kept resolve to 1e-8; those of
        # the refused round do not.
        assert reference[rounds - 1][1] <= G.NTH_PRECISION
        if refused:
            assert reference[rounds][1] > G.NTH_PRECISION
            with pytest.raises(InvalidStateError, match="cannot resolve"):
                hbac.run_protocol(spec, recharger, rounds + 1)

    def test_squeezed_trace_is_refused(self):
        # In double precision round 40 reads 6815743.5 where a 60-digit
        # iteration of the same inputs gives 6842759.49: the system's
        # mu^2 - |nu|^2 cancels, so the trace is refused from round 22 on.
        with pytest.raises(InvalidStateError) as raised:
            hbac.run_protocol(SQUEEZED_SPEC, SQUEEZED, 40)
        assert str(raised.value).startswith(
            "double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08 at this squeezing"
        )
        assert len(hbac.run_protocol(SQUEEZED_SPEC, SQUEEZED, 21).nth) == 21

    @pytest.mark.parametrize(
        "spec, recharger", [pytest.param(*case[1:], id=case[0]) for case in reference_cases()]
    )
    def test_records_match_public_operations(self, spec, recharger):
        assert_matches_reference(spec, recharger, 120)

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
        # + 1/2, overflows when symmetrized as the joint start state is
        # stored.  run_protocol keeps the system's n alone, and is refused by
        # the heat of round 1: the swap chain hands 1e308 excitations to a
        # mode at 1e308.
        spec = hbac.MachineSpec(beta=1e-308, omega0=1.0, omegas=(1e308,))
        with pytest.raises(DomainError) as raised:
            reference_trace(spec, hbac.build_swap_chain(spec), 1)
        assert str(raised.value) == "moments are not finite (overflow)"
        with pytest.raises(DomainError) as raised:
            hbac.run_protocol(spec, hbac.build_swap_chain(spec), 1)
        assert str(raised.value) == "heat or entropy production is not finite in round 1"

    def test_round_one_overflow_refusal(self):
        # A system at mu = 1e307 squeezed by r = 2: its moments overflow, and
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
        assert str(error).startswith("double precision cannot resolve mu^2 - |nu|^2")

    # (case, rounds): refusals late in a trace, and long traces.
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
    # rounds.
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
        # A run of k rounds is the first k records of a longer run, bit for
        # bit, for every cut k = block, 2 block, ..., rounds: the cumulative
        # sums carry nothing that depends on where the run ends.  A cut after
        # the refusal is refused with the longer run's text.
        spec, recharger = next(c[1:] for c in long_cases() if c[0] == case)
        rows, error = assert_matches_reference(spec, recharger, rounds)
        expected = record_reprs(hbac.run_protocol(spec, recharger, len(rows)))
        if error is not None:
            with pytest.raises(type(error)) as whole:
                hbac.run_protocol(spec, recharger, rounds)
        for k in sorted({*range(block, rounds + 1, block), rounds}):
            if k <= len(rows):
                assert record_reprs(hbac.run_protocol(spec, recharger, k)) == expected[:k]
            else:
                with pytest.raises(type(error)) as raised:
                    hbac.run_protocol(spec, recharger, k)
                assert str(raised.value) == str(whole.value)

    @pytest.mark.parametrize("spec, recharger, refused", [
        (HOT_SPEC, hbac.build_swap_chain(HOT_SPEC), 1),
        (PARITY_SPEC, G.make_displacement([0.0, 1e200]), 1),
        (PARITY_SPEC, G.make_displacement([0.0, 1e153]), 90),
    ], ids=["hot-swap-chain", "displaced-machine", "repeated-round"])
    def test_overflowing_heat_is_refused(self, spec, recharger, refused):
        # The swap chain hands 5e299 excitations to a mode at 2e10; a machine
        # displaced by 1e200 gains 1e400; one displaced by 1e153 takes 2e306
        # a round, and the sum overflows in round 90.  Refused, with no numpy
        # warning, where the reference loop records inf.
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
            "double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08 at this"
            " squeezing: mu = 1e+200, |nu| = 2e+153"
        )

    def test_unresolvable_squeezing_is_named(self):
        # The parity run reaches mu = 2.95e6 and |nu| = mu - 0.1 in round 35,
        # where mu^2 - |nu|^2 has a rounding error above 1e-8 of itself.
        recharger = squeeze_displace(1)
        assert len(hbac.run_protocol(PARITY_SPEC, recharger, 34).nth) == 34
        with pytest.raises(InvalidStateError) as raised:
            hbac.run_protocol(PARITY_SPEC, recharger, 35)
        assert str(raised.value) == (
            "double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08 at this"
            " squeezing: mu = 2950511.841367612, |nu| = 2950511.7391266683"
        )


def assert_matches_reference(spec, recharger, rounds):
    """run_protocol against ``reference_trace``: its columns within the bound
    of two double-precision loops, refused in the same round with the same
    error (its numbers within that bound); returns the reference's
    (rows, error)."""
    rows, error = reference_trace(spec, recharger, rounds)
    if rows:
        trace = hbac.run_protocol(spec, recharger, len(rows))
        assert_within_bounds(trace, rows, spec, recharger, loops=2)
    if error is not None:
        with pytest.raises(type(error)) as raised:
            hbac.run_protocol(spec, recharger, len(rows) + 1)
        moments = bounds(spec, recharger, rows, 2)[-1][0] if rows else 0.0
        assert_same_error(raised.value, error, moments)
    return rows, error


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
