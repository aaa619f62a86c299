import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bosecool import fock as F
from bosecool import gaussian as G
from bosecool._lapack import flapack
from bosecool.errors import (
    ConvergenceError,
    CutoffTooSmallError,
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
)


def thermal_frequency(nbar, beta=1.0):
    return math.log1p(1.0 / nbar) / beta


def partial_trace_machine(rho_joint, d_s, d_m):
    return np.einsum("nmkm->nk", rho_joint.reshape(d_s, d_m, d_s, d_m))


def dense_collision(rho, nbar_m, h, t, tail_tol=F.DEFAULT_TAIL_TOL):
    """Reference collision: the dense joint unitary on rho x tau_M, machine traced out."""
    q, _ = F.gibbs_probabilities(nbar_m, h.cutoff.d_m, tail_tol)
    u = F.evolve_unitary(h, t)
    joint = u @ np.kron(rho, np.diag(q).astype(complex)) @ u.conj().T
    return partial_trace_machine(joint, h.cutoff.d_s, h.cutoff.d_m)


def looped_transfer(h, nbar_m, t, tail_tol=F.DEFAULT_TAIL_TOL):
    """Reference T_0: the per-duration loop, one sector and one block update at a time.

    A block is |U_K|^2 q_m = (cos(H' t)^2 + sin(H' t)^2) q_m, entrywise, with
    cos(H' t) = I - 2 V diag(sin^2(E t / 2)) V^T and sin(H' t) = V diag(sin(E t)) V^T.
    """
    q, _ = F.gibbs_probabilities(nbar_m, h.cutoff.d_m, tail_tol)
    tmat = np.zeros((h.cutoff.d_s, h.cutoff.d_s))
    for sec in h._sweep():
        theta = sec.evals * t
        half = np.sin(0.5 * theta)
        cos_h = np.eye(sec.ns.shape[0]) + (sec.evecs * (-2.0 * half * half)) @ sec.evecs.T
        sin_h = (sec.evecs * np.sin(theta)) @ sec.evecs.T
        tmat[np.ix_(sec.ns, sec.ns)] += (cos_h**2 + sin_h**2) * q[sec.ms][None, :]
    return tmat


def lowering_operator(dim):
    a = np.zeros((dim, dim))
    np.fill_diagonal(a[:-1, 1:], np.sqrt(np.arange(1, dim)))
    return a


def first_moment_a(rho):
    return complex(np.trace(rho.rho @ lowering_operator(rho.dim)))


def moment_a2(rho):
    a = lowering_operator(rho.dim)
    return complex(np.trace(rho.rho @ a @ a))


def random_density(rng, dim):
    """Random full-rank density matrix: every coherence order is nonzero."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return F.FockDensity(rho=rho / np.trace(rho).real)


def coherent_state(alpha, dim):
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    psi = np.exp(-abs(alpha) ** 2 / 2 - log_fact / 2) * alpha**n
    psi /= np.linalg.norm(psi)
    return F.FockDensity(rho=np.outer(psi, psi.conj()))


def build(p, nbar_s, nbar_m, chi=1.0, tail_tol=1e-12):
    cut = F.FockCutoff.for_occupations(nbar_s, nbar_m, p=p, tail_tol=tail_tol)
    h = F.build_hamiltonian(
        p=p,
        chi=chi,
        omega0=thermal_frequency(nbar_s),
        omega1=thermal_frequency(nbar_m),
        cutoff=cut,
    )
    return cut, h


class TestCutoff:
    def test_tail_mass(self):
        assert F.gibbs_tail_mass(1.0, 10) == pytest.approx(0.5**10, rel=1e-12)
        assert F.gibbs_tail_mass(0.0, 4) == 0.0

    def test_minimum_cutoff_rule(self):
        for nbar in (0.5, 1.5, 3.0, 5.0):
            d = F.minimum_cutoff(nbar, 1e-10)
            assert F.gibbs_tail_mass(nbar, d) < 1e-10
            assert F.gibbs_tail_mass(nbar, d - 1) >= 1e-10

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, 1.0, 2.0, math.nan])
    def test_minimum_cutoff_rejects_tolerance_outside_unit_interval(self, tail_tol):
        for nbar in (0.0, 1.5):
            with pytest.raises(DomainError, match="tail_tol"):
                F.minimum_cutoff(nbar, tail_tol)

    @pytest.mark.parametrize("nbar", [-1.0, math.nan, math.inf, -math.inf])
    def test_occupation_outside_domain_rejected(self, nbar):
        calls = (
            lambda: F.gibbs_tail_mass(nbar, 10),
            lambda: F.minimum_cutoff(nbar),
            lambda: F.gibbs_probabilities(nbar, 10),
            lambda: F.FockCutoff.for_occupations(nbar, 1.0),
            lambda: F.FockCutoff.for_occupations(1.0, nbar),
        )
        for call in calls:
            with pytest.raises(DomainError, match="nbar"):
                call()

    def test_gibbs_probabilities_rejects_small_cutoff(self):
        with pytest.raises(CutoffTooSmallError) as err:
            F.gibbs_probabilities(3.0, 48, tail_tol=1e-10)
        assert err.value.deficit == pytest.approx((0.75) ** 48, rel=1e-12)

    def test_gibbs_renormalized(self):
        probs, deficit = F.gibbs_probabilities(1.5, 60)
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)
        assert deficit < 1e-10
        ratio = probs[1:] / probs[:-1]
        np.testing.assert_allclose(ratio, 1.5 / 2.5, rtol=1e-12)

    def test_hot_occupation_refused_before_any_sector(self, monkeypatch):
        assert F.minimum_cutoff(1e6, 1e-12) == 27_631_035

        def unreachable(*args, **kwargs):
            raise AssertionError("sectors were built for a refused cutoff")

        for name in ("_build_runs", "_sweep"):
            monkeypatch.setattr(F.ExchangeHamiltonian, name, unreachable)
        for nbar_s, nbar_m in ((1e6, 1.5), (1.5, 1e6), (1e300, 1.5)):
            with pytest.raises(DomainError, match="joint dimension limit 131072"):
                F.FockCutoff.for_occupations(nbar_s, nbar_m, tail_tol=1e-12)
        with pytest.raises(DomainError, match="overflows a float"):
            F.FockCutoff.for_occupations(1e308, 1.5)
        with pytest.raises(DomainError, match="joint dimension limit"):
            F.FockCutoff(F.JOINT_DIM_MAX // 2 + 1, 2)
        assert F.FockCutoff(F.JOINT_DIM_MAX // 2, 2).d_s == F.JOINT_DIM_MAX // 2

    def test_cutoff_floor_for_p(self):
        cut = F.FockCutoff.for_occupations(0.0, 0.0, p=3, minimum=4)
        assert cut.d_s >= 5 and cut.d_m >= 5
        with pytest.raises(DomainError):
            F.build_hamiltonian(p=5, chi=1.0, omega0=1.0, omega1=1.0, cutoff=F.FockCutoff(6, 6))


class TestDensity:
    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            F.FockDensity(rho=np.eye(4) / 3.0)

    def test_rejects_negative(self):
        rho = np.diag([1.2, -0.2, 0.0, 0.0])
        with pytest.raises(InvalidStateError):
            F.FockDensity(rho=rho)

    def test_moments_of_gibbs(self):
        rho = F.FockDensity.gibbs(2.0, 80)
        assert F.mean_excitation(rho) == pytest.approx(2.0, abs=1e-9)
        assert F.second_moment(rho) == pytest.approx(2 * 4 + 2, abs=1e-7)

    def test_vacuum_moments(self):
        rho = F.FockDensity.from_populations([1.0, 0.0, 0.0])
        assert F.mean_excitation(rho) == 0.0
        assert F.second_moment(rho) == 0.0
        assert first_moment_a(rho) == 0.0
        assert moment_a2(rho) == 0.0


class TestHamiltonian:
    def test_ladder_element_p2(self):
        cut = F.FockCutoff(6, 6)
        h = F.build_hamiltonian(p=2, chi=0.7, omega0=1.0, omega1=0.5, cutoff=cut)
        hm = h.matrix
        assert hm[0 * 6 + 2, 1 * 6 + 0] == pytest.approx(0.7 * math.sqrt(2), rel=1e-12)

    def test_matches_direct_kron_assembly(self):
        d = 7
        cut = F.FockCutoff(d, d)
        h = F.build_hamiltonian(p=3, chi=0.9, omega0=1.3, omega1=0.4, cutoff=cut)
        a = lowering_operator(d)
        bp = np.linalg.matrix_power(lowering_operator(d), 3)
        direct = (
            1.3 * np.kron(a.T @ a, np.eye(d))
            + 0.4 * np.kron(np.eye(d), a.T @ a)
            + 0.9 * (np.kron(a, bp.T) + np.kron(a.T, bp))
        )
        np.testing.assert_allclose(h.matrix, direct, atol=1e-12)

    def test_zero_coupling_is_diagonal(self):
        cut = F.FockCutoff(5, 5)
        h = F.build_hamiltonian(p=1, chi=0.0, omega0=1.0, omega1=2.0, cutoff=cut)
        hm = h.matrix
        assert np.max(np.abs(hm - np.diag(np.diag(hm)))) == 0.0

    def test_conserves_bundle_number_exactly(self):
        d = 8
        cut = F.FockCutoff(d, d)
        for p in (1, 2, 3):
            h = F.build_hamiltonian(p=p, chi=1.1, omega0=0.7, omega1=0.3, cutoff=cut)
            k = np.kron(p * np.diag(np.arange(d)), np.eye(d)) + np.kron(
                np.eye(d), np.diag(np.arange(d))
            )
            hm = h.matrix
            assert np.max(np.abs(hm @ k - k @ hm)) == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sectors_bit_equal_eigh_tridiagonal(self, p):
        # Hot benchmark cutoff (nbar_s 5, nbar_m 3), 152 x 97.
        from scipy.linalg import eigh_tridiagonal

        cut, h = build(p, 5.0, 3.0)
        assert (cut.d_s, cut.d_m) == (152, 97)
        for k, sec in enumerate(h._sweep()):
            assert (p * sec.ns + sec.ms == k).all()
            diag = (h.omega0 - p * h.omega1) * sec.ns  # less the sector's omega1 K
            if sec.ns.shape[0] == 1:
                assert sec.evals.tobytes() == diag.astype(float).tobytes()
                continue
            prod = np.ones(sec.ns.shape[0] - 1)
            for i in range(p):
                prod *= sec.ms[:-1] - i
            evals, evecs = eigh_tridiagonal(diag.astype(float), h.chi * np.sqrt(sec.ns[1:] * prod))
            assert sec.evals.tobytes() == evals.tobytes()
            assert sec.evecs.tobytes() == evecs.tobytes()
            assert sec.evecs.flags.f_contiguous == evecs.flags.f_contiguous

    def test_failed_sector_solve_raises_convergence_error(self, monkeypatch):
        # At p = 2 and cutoff 6 x 6, K = 4 is the first sector with three members.
        # Sectors are solved by a sweep, not by the constructor.
        dstevd = flapack().dstevd

        def failing_dstevd(d, e):
            w, v, info = dstevd(d, e)
            return w, v, 3 if d.shape[0] == 3 else info

        monkeypatch.setattr(flapack(), "dstevd", failing_dstevd)
        h = F.build_hamiltonian(p=2, chi=1.0, omega0=1.0, omega1=0.5, cutoff=F.FockCutoff(6, 6))
        with pytest.raises(ConvergenceError, match=r"sector K=4 \(info 3\)"):
            F.transfer_matrix(h, 0.5, 0.1, tail_tol=0.1)

    @pytest.mark.parametrize("name", ["omega0", "omega1", "chi"])
    def test_nonfinite_entry_refused_before_any_sector_solve(self, name, monkeypatch):
        # As scipy's eigh_tridiagonal refuses it: no sector reaches LAPACK.
        def unreachable(*args):
            raise AssertionError("a sector was solved")

        monkeypatch.setattr(flapack(), "dstevd", unreachable)
        params = dict(p=2, chi=1.0, omega0=1.0, omega1=0.5, cutoff=F.FockCutoff(6, 6))
        params[name] = math.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            F.build_hamiltonian(**params)


class TestUnitary:
    def test_identity_at_zero_time(self):
        cut = F.FockCutoff(6, 6)
        h = F.build_hamiltonian(p=2, chi=0.8, omega0=1.0, omega1=0.6, cutoff=cut)
        np.testing.assert_allclose(F.evolve_unitary(h, 0.0), np.eye(36), atol=1e-14)

    def test_unitarity_and_group_property(self):
        cut = F.FockCutoff(8, 8)
        h = F.build_hamiltonian(p=2, chi=1.0, omega0=0.9, omega1=0.5, cutoff=cut)
        u1 = F.evolve_unitary(h, 0.4)
        u2 = F.evolve_unitary(h, 0.35)
        u3 = F.evolve_unitary(h, 0.75)
        assert np.max(np.abs(u1.conj().T @ u1 - np.eye(64))) < 1e-12
        assert np.max(np.abs(u2 @ u1 - u3)) < 1e-9

    def test_matches_scipy_expm(self):
        import scipy.linalg

        cut = F.FockCutoff(5, 6)
        h = F.build_hamiltonian(p=2, chi=0.8, omega0=1.1, omega1=0.45, cutoff=cut)
        u = F.evolve_unitary(h, 0.7)
        ref = scipy.linalg.expm(-1j * h.matrix * 0.7)
        np.testing.assert_allclose(u, ref, atol=1e-11)

    def test_beam_splitter_full_swap(self):
        # p=1, resonant, chi*t = pi/2 exchanges the mode populations.
        cut = F.FockCutoff(30, 30)
        h = F.build_hamiltonian(p=1, chi=1.0, omega0=1.0, omega1=1.0, cutoff=cut)
        rho = F.FockDensity.gibbs(0.8, 30)
        out = F.single_collision(rho, 0.3, h, math.pi / 2)
        assert F.mean_excitation(out) == pytest.approx(0.3, abs=1e-9)


class TestSingleCollision:
    def test_zero_time_identity(self):
        cut, h = build(2, 1.0, 0.5)
        rho = F.FockDensity.gibbs(1.0, cut.d_s)
        out = F.single_collision(rho, 0.5, h, 0.0)
        np.testing.assert_allclose(out.rho, rho.rho, atol=1e-13)

    def test_short_time_drop_matches_second_order(self):
        cut, h = build(2, 2.0, 1.5)
        rho = F.FockDensity.gibbs(2.0, cut.d_s, tail_tol=1e-11)
        out = F.single_collision(rho, 1.5, h, 1e-2, tail_tol=1e-11)
        dn = F.mean_excitation(out) - F.mean_excitation(rho)
        assert dn == pytest.approx(-1.15e-3, abs=3e-7)

    def test_diagonal_fast_path_equals_dense_path(self):
        cut = F.FockCutoff(36, 36)
        h = F.build_hamiltonian(p=2, chi=1.0, omega0=0.8, omega1=0.5, cutoff=cut)
        probs, _ = F.gibbs_probabilities(0.8, 36)
        rho = F.FockDensity.from_populations(probs)
        fast = F.single_collision(rho, 0.6, h, 0.05)
        u = F.evolve_unitary(h, 0.05)
        q, _ = F.gibbs_probabilities(0.6, 36)
        joint = u @ np.kron(rho.rho, np.diag(q).astype(complex)) @ u.conj().T
        dense = partial_trace_machine(joint, 36, 36)
        np.testing.assert_allclose(fast.rho, dense, atol=1e-13)

    def test_output_stays_diagonal(self):
        # Dense path from a thermal input: off-diagonals must vanish.
        cut = F.FockCutoff(36, 36)
        h = F.build_hamiltonian(p=2, chi=1.0, omega0=0.8, omega1=0.5, cutoff=cut)
        probs, _ = F.gibbs_probabilities(0.7, 36)
        u = F.evolve_unitary(h, 0.3)
        q, _ = F.gibbs_probabilities(0.5, 36)
        joint = u @ np.kron(np.diag(probs).astype(complex), np.diag(q).astype(complex)) @ u.conj().T
        dense = partial_trace_machine(joint, 36, 36)
        off = dense - np.diag(np.diag(dense))
        assert np.max(np.abs(off)) < 1e-10
        out = F.FockDensity(rho=dense)
        assert abs(first_moment_a(out)) < 1e-10
        assert abs(moment_a2(out)) < 1e-10

    def test_machine_tail_guard(self):
        cut = F.FockCutoff(48, 48)
        h = F.build_hamiltonian(p=2, chi=1.0, omega0=1.0, omega1=0.3, cutoff=cut)
        rho = F.FockDensity.gibbs(0.5, 48)
        with pytest.raises(CutoffTooSmallError):
            F.single_collision(rho, 3.0, h, 0.01)  # (3/4)^48 ~ 1e-6 > 1e-10

    def test_p1_agrees_with_gaussian_beam_splitter(self):
        # Exchange angle theta = chi * t on thermal inputs.
        nbar_s, nbar_m, theta = 0.9, 0.4, 0.37
        cut = F.FockCutoff(60, 60)
        h = F.build_hamiltonian(p=1, chi=1.0, omega0=1.0, omega1=1.0, cutoff=cut)
        rho = F.FockDensity.gibbs(nbar_s, 60)
        out = F.single_collision(rho, nbar_m, h, theta)
        state = G.product_thermal([nbar_s, nbar_m])
        bs = G.make_beam_splitter(0, 1, 2, theta)
        expected = G.reduce(G.apply_unitary(state, bs), [0]).mean_excitations[0]
        assert F.mean_excitation(out) == pytest.approx(expected, abs=1e-9)

        # A coherent input carries every coherence order; at resonance the free
        # evolution only rotates <a>, so <n> and |<a>| follow the beam splitter.
        alpha = 0.9 * np.exp(0.7j)
        h = F.build_hamiltonian(p=1, chi=1.0, omega0=1.0, omega1=1.0, cutoff=F.FockCutoff(30, 30))
        rho = coherent_state(alpha, 30)
        displaced = G.apply_unitary(G.product_thermal([0.0, nbar_m]), G.make_displacement([alpha, 0]))
        for theta in (0.15, 0.37, 0.8, 1.2, math.pi / 2):
            out = F.single_collision(rho, nbar_m, h, theta)
            mode = G.reduce(G.apply_unitary(displaced, G.make_beam_splitter(0, 1, 2, theta)), [0])
            assert F.mean_excitation(out) == pytest.approx(mode.mean_excitations[0], abs=1e-9)
            assert abs(first_moment_a(out)) == pytest.approx(abs(mode.alpha[0]), abs=1e-9)


class TestIteratedCollisions:
    def test_zero_coupling_flat_and_gibbs(self):
        cut = F.FockCutoff(40, 40)
        h = F.build_hamiltonian(p=2, chi=0.0, omega0=1.0, omega1=0.5, cutoff=cut)
        rho = F.FockDensity.gibbs(1.0, 40)
        tr = F.iterate_collisions(rho, 0.5, h, 5e-3, 50)
        np.testing.assert_allclose(tr.mean_n, 1.0, atol=1e-10)
        np.testing.assert_allclose(tr.fano_q, 0.0, atol=1e-9)

    def test_trace_matches_repeated_single_collisions(self):
        cut, h = build(2, 1.0, 0.8)
        rho = F.FockDensity.gibbs(1.0, cut.d_s)
        tr = F.iterate_collisions(rho, 0.8, h, 0.02, 5)
        state = rho
        for l in range(5):
            state = F.single_collision(state, 0.8, h, 0.02)
            assert tr.mean_n[l] == pytest.approx(F.mean_excitation(state), abs=1e-12)
        np.testing.assert_allclose(tr.final.populations, state.populations, atol=1e-12)

    def test_asymptote_is_boosted_thermal(self):
        # Fixed point occupation 1/(e^{p beta omega1} - 1), exact for the
        # truncated channel up to the system tail.
        for p in (1, 2, 3):
            cut, h = build(p, 2.0, 1.5)
            stat = F.stationary_populations(F.transfer_matrix(h, 1.5, 5e-3, tail_tol=1e-11)[0])
            n_inf = float(stat @ np.arange(cut.d_s))
            target = 1.5**p / (2.5**p - 1.5**p)
            assert n_inf == pytest.approx(target, rel=1e-9)

    def test_stationary_is_fixed_point_of_transfer(self):
        cut, h = build(2, 2.0, 1.5)
        tmat, _ = F.transfer_matrix(h, 1.5, 5e-3, tail_tol=1e-11)
        stat = F.stationary_populations(tmat)
        np.testing.assert_allclose(tmat @ stat, stat, atol=1e-12)
        np.testing.assert_allclose(tmat.sum(axis=0), 1.0, atol=1e-12)
        flow = tmat * stat  # detailed balance: T[a, n] pi_n = T[n, a] pi_a
        assert np.max(np.abs(flow - flow.T)) < 1e-16

    def test_fano_vanishes_at_convergence(self):
        cut, h = build(3, 2.0, 1.5)
        rho = F.FockDensity.gibbs(2.0, cut.d_s, tail_tol=1e-11)
        tr = F.iterate_collisions(rho, 1.5, h, 5e-3, 8000, tail_tol=1e-11)
        assert abs(tr.fano_q[-1]) < 1e-6

    def test_non_diagonal_input_falls_back_to_dense_rounds(self):
        # Each round of the coherence-order channel equals a dense round.
        dim = 24
        psi = np.zeros(dim, dtype=complex)
        psi[0] = psi[1] = 1 / math.sqrt(2)
        rho = F.FockDensity(rho=np.outer(psi, psi.conj()))
        cut = F.FockCutoff(dim, dim)
        h = F.build_hamiltonian(p=2, chi=1.0, omega0=1.0, omega1=0.45, cutoff=cut)
        tr = F.iterate_collisions(rho, 0.4, h, 0.05, 3)
        state = rho
        for l in range(3):
            state = F.FockDensity(rho=dense_collision(state.rho, 0.4, h, 0.05))
            assert tr.mean_n[l] == pytest.approx(F.mean_excitation(state), abs=1e-12)
        np.testing.assert_allclose(tr.final.rho, state.rho, atol=1e-12)
        # coherences survive the round trip (a populations-only channel would drop them)
        assert np.max(np.abs(tr.final.rho - np.diag(np.diag(tr.final.rho)))) > 1e-4

    def test_truncation_robustness(self):
        cut, h = build(2, 2.0, 1.5)
        stat = F.stationary_populations(F.transfer_matrix(h, 1.5, 5e-3, tail_tol=1e-11)[0])
        n_inf = float(stat @ np.arange(cut.d_s))
        big = F.FockCutoff(cut.d_s * 2, cut.d_m * 2)
        h2 = F.build_hamiltonian(p=2, chi=1.0, omega0=h.omega0, omega1=h.omega1, cutoff=big)
        stat2 = F.stationary_populations(F.transfer_matrix(h2, 1.5, 5e-3, tail_tol=1e-11)[0])
        n_inf2 = float(stat2 @ np.arange(big.d_s))
        assert abs(n_inf2 - n_inf) < 1e-6

    @staticmethod
    def _recorded(rounds, k):
        expected = list(range(1, rounds + 1, k))
        if expected[-1] != rounds:
            expected.append(rounds)
        return expected

    @pytest.mark.parametrize("rounds, k", [(250, 1), (250, 7), (250, 100), (50, 100), (1, 3)])
    def test_record_every_matches_every_round_trace(self, rounds, k):
        cut, h = build(2, 1.0, 0.8)
        rho = F.FockDensity.gibbs(1.0, cut.d_s)
        full = F.iterate_collisions(rho, 0.8, h, 0.02, rounds)
        sub = F.iterate_collisions(rho, 0.8, h, 0.02, rounds, record_every=k)
        expected = self._recorded(rounds, k)
        assert sub.rounds.tolist() == expected
        idx = np.array(expected) - 1
        for name in ("mean_n", "mean_n2", "fano_q"):
            assert getattr(sub, name).tobytes() == getattr(full, name)[idx].tobytes()
        assert sub.final.rho.tobytes() == full.final.rho.tobytes()
        assert sub.transfer.tobytes() == full.transfer.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_record_every_on_dense_path(self, k):
        dim = 16
        psi = np.zeros(dim, dtype=complex)
        psi[0] = psi[2] = 1 / math.sqrt(2)
        rho = F.FockDensity(rho=np.outer(psi, psi.conj()))
        cut = F.FockCutoff(dim, dim)
        h = F.build_hamiltonian(p=2, chi=1.0, omega0=1.0, omega1=0.45, cutoff=cut)
        full = F.iterate_collisions(rho, 0.3, h, 0.05, 5)
        sub = F.iterate_collisions(rho, 0.3, h, 0.05, 5, record_every=k)
        assert sub.transfer.tobytes() == F.transfer_matrix(h, 0.3, 0.05)[0].tobytes()
        state = rho.rho
        for l in range(5):
            state = dense_collision(state, 0.3, h, 0.05)
            mean = np.real(np.diag(state)) @ np.arange(dim)
            assert full.mean_n[l] == pytest.approx(mean, abs=1e-12)
        np.testing.assert_allclose(full.final.rho, state, atol=1e-12)
        expected = self._recorded(5, k)
        assert sub.rounds.tolist() == expected
        idx = np.array(expected) - 1
        for name in ("mean_n", "mean_n2", "fano_q"):
            assert getattr(sub, name).tobytes() == getattr(full, name)[idx].tobytes()
        assert sub.final.rho.tobytes() == full.final.rho.tobytes()

    def test_system_dimension_must_match_cutoff(self):
        cut, h = build(1, 1.0, 0.8)
        for rho in (F.FockDensity.gibbs(1.0, cut.d_s + 1), coherent_state(0.9, cut.d_s - 1)):
            with pytest.raises(DimensionMismatchError):
                F.single_collision(rho, 0.8, h, 0.02)
            with pytest.raises(DimensionMismatchError):
                F.iterate_collisions(rho, 0.8, h, 0.02, 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_record_every_below_one_rejected(self, k):
        cut, h = build(1, 1.0, 0.8)
        rho = F.FockDensity.gibbs(1.0, cut.d_s)
        with pytest.raises(DomainError, match="record_every"):
            F.iterate_collisions(rho, 0.8, h, 0.02, 10, record_every=k)

    def test_stationary_of_trace_transfer_equals_rebuilt_transfer(self):
        for p in (1, 2, 3):
            cut, h = build(p, 2.0, 1.5)
            rho = F.FockDensity.gibbs(2.0, cut.d_s, tail_tol=1e-11)
            tr = F.iterate_collisions(rho, 1.5, h, 5e-3, 10, tail_tol=1e-11)
            tmat, _ = F.transfer_matrix(h, 1.5, 5e-3, tail_tol=1e-11)
            assert tr.transfer.tobytes() == tmat.tobytes()
            np.testing.assert_array_equal(
                F.stationary_populations(tr.transfer), F.stationary_populations(tmat)
            )


def truncated_gibbs_mean(nbar_m, p, dim):
    """Mean of pi_n proportional to (nbar_M / (1 + nbar_M))^(p n), n < dim: the
    truncated Gibbs state at the p-fold boosted inverse temperature."""
    w = (nbar_m / (1.0 + nbar_m)) ** (p * np.arange(dim))
    return float(w @ np.arange(dim) / w.sum())


class TestStationaryByDetailedBalance:
    """The fixed point from T_0's detailed balance, against the truncated
    Gibbs state it must equal, at the CLI's cutoffs (tail 1e-10, machine
    tail 1e-9)."""

    @staticmethod
    def _tmat(p, nbar_s, nbar_m, t, chi=1.0, tail_tol=1e-10):
        cut, h = build(p, nbar_s, nbar_m, chi=chi, tail_tol=tail_tol)
        return cut, F.transfer_matrix(h, nbar_m, t, tail_tol=10 * tail_tol)[0]

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-9, 1e-7, 1e-5, 1e-3, 5e-3, 0.05, 0.4])
    def test_matches_truncated_gibbs_mean(self, p, t):
        # README point (69 x 55): t spans the short durations where the unit
        # eigenvector of T was ill-conditioned (spectral gap ~ (chi t)^2).
        cut, tmat = self._tmat(p, 2.0, 1.5, t)
        mean = float(F.stationary_populations(tmat) @ np.arange(cut.d_s))
        target = truncated_gibbs_mean(1.5, p, cut.d_s)
        assert mean == pytest.approx(target, rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-9, 5e-3, 0.4])
    def test_matches_truncated_gibbs_mean_hot(self, p, t):
        # The benchmark's hot point, at its tail 1e-12.
        cut, tmat = self._tmat(p, 5.0, 3.0, t, tail_tol=1e-12)
        assert (cut.d_s, cut.d_m) == (152, 97)
        mean = float(F.stationary_populations(tmat) @ np.arange(cut.d_s))
        assert mean == pytest.approx(truncated_gibbs_mean(3.0, p, cut.d_s), rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("nbar_m", [1e-5, 1e-10, 1e-30, 1e-100])
    def test_cold_machine(self, p, nbar_m):
        cut, tmat = self._tmat(p, 2.0, nbar_m, 5e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = float(F.stationary_populations(tmat) @ np.arange(cut.d_s))
        assert mean == pytest.approx(truncated_gibbs_mean(nbar_m, p, cut.d_s), rel=1e-12)

    @pytest.mark.parametrize(
        "p, chi",
        [(1, 1e-6), (1, 1e-9), (1, 1e-14), (1, 1e-20), (2, 1e-14), (2, 1e-16), (3, 1e-14),
         (3, 1e-16)],
    )
    def test_small_coupling(self, p, chi):
        # omega0 = omega1: at p = 1 the shifted sector diagonal is 0, and every
        # rate is O((chi t)^2), far below the O(1) terms a product of sector
        # unitaries would cancel to reach it.
        cut, tmat = self._tmat(p, 0.5, 0.5, 5e-3, chi=chi)
        mean = float(F.stationary_populations(tmat) @ np.arange(cut.d_s))
        assert mean == pytest.approx(truncated_gibbs_mean(0.5, p, cut.d_s), rel=1e-13)

    @pytest.mark.parametrize("p", [2, 3])
    def test_deflated_coupling_refused(self, p):
        # At p = 2, 3 the shifted diagonal (1 - p) omega1 n is O(1), and dstevd
        # deflates a 1e-20 coupling in each sector of three or more members:
        # every rate between levels above 0 is exactly 0.
        _, tmat = self._tmat(p, 0.5, 0.5, 5e-3, chi=1e-20)
        assert not np.diagonal(tmat, 1)[1:].any() and not np.diagonal(tmat, -1)[1:].any()
        with pytest.raises(ConvergenceError, match="not certified"):
            F.stationary_populations(tmat)

    def test_underflowing_up_rate_gives_exact_zeros(self):
        # At nbar_M = 1e-200 every machine level m >= 2 has Gibbs weight 0, so
        # for p = 2, 3 no collision lifts the system out of its ground state.
        for p in (1, 2, 3):
            cut, tmat = self._tmat(p, 2.0, 1e-200, 5e-3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pi = F.stationary_populations(tmat)
            mean = float(pi @ np.arange(cut.d_s))
            if p == 1:
                assert mean == pytest.approx(1e-200, rel=1e-12)
            else:
                assert mean == 0.0
                assert pi.tolist() == [1.0] + [0.0] * (cut.d_s - 1)

    def test_non_reversible_transfer_refused(self):
        # A probability current around the cycle 0 -> 1 -> 2 -> 0 keeps every
        # column sum but breaks detailed balance.
        _, tmat = self._tmat(1, 2.0, 1.5, 5e-3)
        cyc = tmat.copy()
        for a, n in ((1, 0), (2, 1), (0, 2)):
            cyc[a, n] += 1e-6
            cyc[n, n] -= 1e-6
        np.testing.assert_allclose(cyc.sum(axis=0), 1.0, atol=1e-15)
        with pytest.raises(ConvergenceError, match="not certified") as info:
            F.stationary_populations(cyc)
        assert info.value.residual > 1e-9

    @pytest.mark.parametrize("tmat", [np.eye(5), None])
    def test_identity_refused(self, tmat):
        # T = I fixes every state: no stationary state is singled out.  At
        # t = 0 every sector block is exactly the identity, so T is diagonal too.
        if tmat is None:
            _, tmat = self._tmat(1, 0.5, 0.5, 0.0)
            assert np.array_equal(tmat, np.diag(np.diag(tmat)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not certified"):
                F.stationary_populations(tmat)

    @pytest.mark.parametrize("p, t", [(1, 0.1), (2, 0.05), (3, 0.02)])
    def test_iterated_rounds_approach_at_the_spectral_gap_rate(self, p, t):
        # The deviation of the mean from the fixed point decays like the
        # second largest eigenvalue modulus of T, per round.
        cut, h = build(p, 2.0, 1.5, tail_tol=1e-10)
        tmat = F.transfer_matrix(h, 1.5, t, tail_tol=1e-9)[0]
        lam = np.sort(np.abs(np.linalg.eigvals(tmat)))[-2]
        mean_inf = F.stationary_populations(tmat) @ np.arange(cut.d_s)
        rounds = int(math.log(1e-7) / math.log(lam))
        rho = F.FockDensity.gibbs(2.0, cut.d_s, tail_tol=1e-9)
        dev = F.iterate_collisions(rho, 1.5, h, t, rounds, tail_tol=1e-9).mean_n - mean_inf
        i, j = rounds // 2 - 1, rounds - 1
        assert abs(dev[j]) < 1e-6 < abs(dev[i])
        assert (dev[j] / dev[i]) ** (1.0 / (j - i)) == pytest.approx(lam, rel=1e-5)


class TestStepPopulations:
    """One stacked product a round gives every cell the bits of its own loop."""

    @staticmethod
    def _stack():
        # The README point: p = 1, 2, 3 share the cutoff 69 x 55.
        tmats = []
        for p in (1, 2, 3):
            cut, h = build(p, 2.0, 1.5)
            tmats.append(F.transfer_matrix(h, 1.5, 5e-3, tail_tol=1e-11)[0])
        state, _ = F.gibbs_probabilities(2.0, cut.d_s, 1e-11)
        return np.stack(tmats), np.stack([state] * 3)

    @pytest.mark.parametrize("k", [1, 7, 60])
    def test_stack_equals_one_cell_calls_and_reference_loop(self, k):
        tmats, states = self._stack()
        rounds = 60
        recorded, mean, mean2, final = F.step_populations(tmats, states, rounds, k)
        expected = list(range(1, rounds + 1, k))
        if expected[-1] != rounds:
            expected.append(rounds)
        assert recorded == expected
        n = np.arange(tmats.shape[-1])
        for i in range(3):
            one = F.step_populations(tmats[i : i + 1], states[i : i + 1], rounds, k)
            assert one[0] == recorded
            for got, ref in zip((mean[i], mean2[i], final[i]), one[1:]):
                assert got.tobytes() == ref[0].tobytes()
            state, moments = states[i].copy(), []
            for l in range(1, rounds + 1):
                state = tmats[i] @ state
                if l in expected:
                    moments.append((state @ n, state @ (n * n)))
            ref_mean, ref_mean2 = np.array(moments).T
            assert mean[i].tobytes() == ref_mean.tobytes()
            assert mean2[i].tobytes() == ref_mean2.tobytes()
            assert final[i].tobytes() == state.tobytes()

    @pytest.mark.parametrize("rounds, k, name", [(0, 1, "rounds"), (5, 0, "record_every")])
    def test_counts_below_one_rejected(self, rounds, k, name):
        tmats, states = self._stack()
        with pytest.raises(DomainError, match=f"{name} must be >= 1"):
            F.step_populations(tmats, states, rounds, k)


class TestCoherenceOrders:
    """The channel acts on each coherence order n - n' through its own T_delta."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("d_s, d_m", [(5, 5), (7, 11), (12, 12), (12, 16)])
    def test_random_full_rank_input_matches_dense_oracle(self, p, d_s, d_m):
        rng = np.random.default_rng(100 * p + 10 * d_s + d_m)
        h = F.build_hamiltonian(
            p=p, chi=rng.uniform(0.3, 1.5), omega0=rng.uniform(0.5, 2.0),
            omega1=rng.uniform(0.3, 1.5), cutoff=F.FockCutoff(d_s, d_m),
        )
        nbar_m, tol, t = 0.1, 1e-3, rng.uniform(0.05, 2.0)
        rho = random_density(rng, d_s)
        out = F.single_collision(rho, nbar_m, h, t, tail_tol=tol)
        assert np.max(np.abs(out.rho - dense_collision(rho.rho, nbar_m, h, t, tol))) <= 1e-13
        tr = F.iterate_collisions(rho, nbar_m, h, t, 4, tail_tol=tol)
        state = rho.rho
        for l in range(4):
            state = dense_collision(state, nbar_m, h, t, tol)
            assert abs(tr.mean_n[l] - np.real(np.diag(state)) @ np.arange(d_s)) <= 1e-13
        assert np.max(np.abs(tr.final.rho - state)) <= 1e-13

    def test_tiny_coherence_survives(self):
        cut, h = build(2, 1.0, 0.8)
        probs, _ = F.gibbs_probabilities(1.0, cut.d_s, 1e-12)
        outs = []
        for eps in (5e-15, 5e-14):
            rho = np.diag(probs).astype(complex)
            rho[0, 1] = rho[1, 0] = eps
            outs.append(F.single_collision(F.FockDensity(rho=rho), 0.8, h, 0.3).rho)
        small, big = (np.diagonal(out, -1) for out in outs)
        assert abs(small[0]) > 1e-15
        np.testing.assert_allclose(10 * small, big, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(np.diag(outs[0]), np.diag(outs[1]))

    def test_memory_stays_cubic_in_system_cutoff(self):
        # README point (nbar_s 2, nbar_m 1.5): cutoff 69x55, where the dense joint
        # unitary alone would take 230 MB.
        cut, h = build(1, 2.0, 1.5)
        assert (cut.d_s, cut.d_m) == (69, 55)
        rho = random_density(np.random.default_rng(7), cut.d_s)
        tracemalloc.start()
        try:
            F.single_collision(rho, 1.5, h, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("t", [-0.3, math.nan, math.inf, -math.inf])
    def test_duration_outside_domain_rejected(self, t):
        cut, h = build(2, 1.0, 0.8)
        for rho in (F.FockDensity.gibbs(1.0, cut.d_s), coherent_state(0.9, cut.d_s)):
            with pytest.raises(DomainError, match="t must be finite and nonnegative"):
                F.single_collision(rho, 0.8, h, t)
            with pytest.raises(DomainError, match="t must be finite and nonnegative"):
                F.iterate_collisions(rho, 0.8, h, t, 3)


class TestDurationAxis:
    """The channel is stacked over durations; every slice equals the one-duration build."""

    LENGTHS = (1, F.CHUNK - 1, F.CHUNK, F.CHUNK + 1, 2 * F.CHUNK + 1)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_stacked_slices_equal_per_duration_loop(self, p):
        cut, h = build(p, 1.0, 0.8)
        rho = F.FockDensity.gibbs(1.0, cut.d_s, tail_tol=1e-11)
        n = np.arange(cut.d_s)
        q, _ = F.gibbs_probabilities(0.8, cut.d_m, 1e-11)
        for length in self.LENGTHS:
            ts = np.linspace(0.0, 0.4, length)  # starts at t = 0
            tmats, _ = F._channel(h, h._sweep(), q, ts, ())
            pops, deficit = F.collision_populations(rho.populations, 0.8, h, ts, tail_tol=1e-11)
            assert pops.shape == (length, cut.d_s)
            for t, tmat, pop in zip(ts, tmats, pops):
                ref = looped_transfer(h, 0.8, t, tail_tol=1e-11)
                assert tmat.tobytes() == ref.tobytes()
                assert F.transfer_matrix(h, 0.8, t, tail_tol=1e-11)[0].tobytes() == ref.tobytes()
                assert pop.tobytes() == (ref @ rho.populations.copy()).tobytes()
                out = F.single_collision(rho, 0.8, h, t, tail_tol=1e-11)
                assert pop.tobytes() == out.populations.tobytes()
                assert float(np.sum(pop * n)) == F.mean_excitation(out)
            assert deficit == F.transfer_matrix(h, 0.8, 0.1, tail_tol=1e-11)[1]

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_populations_match_dense_oracle(self, p):
        rng = np.random.default_rng(31 + p)
        h = F.build_hamiltonian(
            p=p, chi=rng.uniform(0.3, 1.5), omega0=rng.uniform(0.5, 2.0),
            omega1=rng.uniform(0.3, 1.5), cutoff=F.FockCutoff(12, 16),
        )
        rho = random_density(rng, 12)
        ts = np.concatenate([[0.0], rng.uniform(0.05, 2.0, F.CHUNK + 1)])
        pops, _ = F.collision_populations(rho.populations, 0.1, h, ts, tail_tol=1e-3)
        for t, pop in zip(ts, pops):
            ref = np.real(np.diag(dense_collision(rho.rho, 0.1, h, t, 1e-3)))
            assert np.max(np.abs(pop - ref)) <= 1e-13

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.3])
    @pytest.mark.parametrize("where", [0, 1, F.CHUNK + 2])
    def test_duration_outside_domain_rejected_before_sector_work(self, bad, where, monkeypatch):
        cut, h = build(2, 1.0, 0.8)
        rho = F.FockDensity.gibbs(1.0, cut.d_s)

        def unreachable(*args, **kwargs):
            raise AssertionError("sector work ran before the durations were checked")

        monkeypatch.setattr(F, "_channel", unreachable)
        ts = np.linspace(0.0, 0.4, 2 * F.CHUNK + 1)
        ts[where] = bad
        with pytest.raises(DomainError, match="t must be finite and nonnegative"):
            F.collision_populations(rho.populations, 0.8, h, ts)

    def test_empty_durations_give_empty_populations(self):
        cut, h = build(2, 1.0, 0.8)
        rho = F.FockDensity.gibbs(1.0, cut.d_s)
        pops, deficit = F.collision_populations(rho.populations, 0.8, h, [])
        assert pops.shape == (0, cut.d_s)
        assert deficit == F.transfer_matrix(h, 0.8, 0.0)[1]

    def test_system_dimension_must_match_cutoff(self):
        # The population vector's length is checked against d_S.
        cut, h = build(2, 1.0, 0.8)
        for dim in (12, cut.d_s - 1, cut.d_s + 1):
            pops, _ = F.gibbs_probabilities(1.0, dim, 1e-3)
            with pytest.raises(DimensionMismatchError, match=f"system dimension {dim} does not"):
                F.collision_populations(pops, 0.8, h, [0.1])

    def test_memory_of_one_transfer_matrix(self):
        # Hot benchmark cutoff, p = 1: the sweep holds one sector's decomposition
        # at a time, not the 8.6 MB of every sector's eigenvectors.
        flapack()  # loading LAPACK is not the sweep's memory

        cut = F.FockCutoff.for_occupations(5.0, 3.0, p=1, tail_tol=1e-12)
        assert (cut.d_s, cut.d_m) == (152, 97)
        tracemalloc.start()
        try:
            h = F.build_hamiltonian(p=1, chi=1.0, omega0=0.18, omega1=0.29, cutoff=cut)
            F.transfer_matrix(h, 3.0, 5e-3, tail_tol=1e-11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_memory_does_not_grow_with_durations(self):
        # Hot benchmark cutoff (nbar_s 5, nbar_m 3).  At p = 6 its sectors hold at
        # most 17 members, which makes 1001 durations cheaper to sweep than at p <= 3.
        cut = F.FockCutoff.for_occupations(5.0, 3.0, p=3, tail_tol=1e-12)
        assert (cut.d_s, cut.d_m) == (152, 97)
        h = F.build_hamiltonian(p=6, chi=1.0, omega0=0.18, omega1=0.29, cutoff=cut)
        rho = F.FockDensity.gibbs(5.0, cut.d_s, tail_tol=1e-11)
        peaks = []
        for length in (51, 1001):
            ts = np.linspace(0.0, 0.4, length)
            tracemalloc.start()
            try:
                F.collision_populations(rho.populations, 3.0, h, ts, tail_tol=1e-11)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - length * cut.d_s * 8)  # less the (len(ts), d_s) result
        assert peaks[1] <= peaks[0] + 64 * 1024


class TestInternalResultsValid:
    """Collisions assemble their results unchecked; the constructor must accept them."""

    @staticmethod
    def _revalidate(state):
        checked = F.FockDensity(rho=state.rho)
        assert checked.rho.tobytes() == state.rho.tobytes()
        np.testing.assert_array_equal(state.rho, state.rho.conj().T)
        assert not state.rho.flags.writeable

    @staticmethod
    def _random_input(rng, dim, diagonal):
        rho = np.diag(rng.dirichlet(np.ones(dim))).astype(complex)
        if not diagonal:
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            w = rng.uniform(0.2, 0.8)
            rho = (1 - w) * rho + w * np.outer(psi, psi.conj())
        return F.FockDensity(rho=rho)

    def test_random_sweep(self):
        rng = np.random.default_rng(2024)
        for trial in range(16):
            p = int(rng.integers(1, 4))
            nbar_m = rng.uniform(0.05, 0.6)
            cut = F.FockCutoff.for_occupations(0.1, nbar_m, p=p, minimum=6)
            h = F.build_hamiltonian(
                p=p, chi=rng.uniform(0.2, 1.5), omega0=rng.uniform(0.5, 2.0),
                omega1=rng.uniform(0.3, 1.5), cutoff=cut,
            )
            t = rng.uniform(0.0, 1.0)
            rho = self._random_input(rng, cut.d_s, diagonal=trial % 2 == 0)
            out = F.single_collision(rho, nbar_m, h, t)
            self._revalidate(out)
            np.testing.assert_allclose(out.rho, dense_collision(rho.rho, nbar_m, h, t), atol=1e-13)
            tr = F.iterate_collisions(rho, nbar_m, h, t, int(rng.integers(1, 6)))
            self._revalidate(tr.final)
            assert tr.transfer.tobytes() == F.transfer_matrix(h, nbar_m, t)[0].tobytes()
