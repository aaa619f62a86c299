import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosecool import gaussian as G
from bosecool.errors import (
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
    InvalidUnitaryError,
)


def two_mode_squeezer(r):
    """Two-mode squeezing: C = cosh(r) I, S = sinh(r) sigma_x."""
    return G.GaussianUnitary(
        C=np.cosh(r) * np.eye(2, dtype=complex),
        S=np.sinh(r) * np.array([[0, 1], [1, 0]], dtype=complex),
    )


class TestGibbsState:
    def test_nbar_one(self):
        s = G.gibbs_state([G.GibbsMode(omega=math.log(2), beta=1.0)])
        assert s.mu[0, 0] == pytest.approx(1.5, abs=1e-14)
        assert s.mean_excitations[0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_temperature_limit(self):
        s = G.gibbs_state([G.GibbsMode(omega=80.0, beta=1.0)])
        assert s.mu[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_nbar_two(self):
        s = G.gibbs_state([G.GibbsMode(omega=1.0, beta=math.log(1.5))])
        assert s.mean_excitations[0] == pytest.approx(2.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            G.GibbsMode(omega=-1.0, beta=1.0)
        with pytest.raises(DomainError):
            G.GibbsMode(omega=1.0, beta=0.0)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_nbar_decreasing_in_beta_omega(self, x1, x2):
        lo, hi = sorted([x1, x2])
        if hi - lo < 1e-9:
            return
        n_lo = G.GibbsMode(omega=lo, beta=1.0).nbar
        n_hi = G.GibbsMode(omega=hi, beta=1.0).nbar
        assert n_hi < n_lo


class TestStateInvariants:
    def test_rejects_nonhermitian_mu(self):
        mu = np.array([[1.0, 0.5], [0.1, 1.0]], dtype=complex)
        with pytest.raises(InvalidStateError):
            G.GaussianState(alpha=np.zeros(2), mu=mu, nu=np.zeros((2, 2)))

    def test_rejects_uncertainty_violation(self):
        # mu below the vacuum floor 1/2.
        with pytest.raises(InvalidStateError):
            G.GaussianState(alpha=np.zeros(1), mu=np.array([[0.3]]), nu=np.zeros((1, 1)))

    def test_arrays_frozen(self):
        s = G.apply_unitary(G.product_thermal([1.0, 0.5]), G.random_gaussian_unitary(2, 4))
        u = G.random_gaussian_unitary(2, 5)
        arrays = [s.r, s.M, s.alpha, s.mu, s.nu, u.G, u.d, u.C, u.S, u.d_alpha]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 9.0
        for obj, name in [(s, "r"), (s, "M"), (s, "mu"), (u, "G"), (u, "d"), (u, "C")]:
            with pytest.raises(AttributeError):
                setattr(obj, name, np.zeros(1))

    def test_views_share_the_stored_moments(self):
        s = G.GaussianState(
            alpha=[0.3 + 0.1j, -0.2], mu=[[1.0, 0.1j], [-0.1j, 0.8]], nu=[[0.2, 0.05], [0.05, 0.0]]
        )
        assert s.r.shape == (4,) and s.M.shape == (4, 4)
        for view in (s.alpha, s.mu, s.nu):
            assert view.base is s.r or view.base is s.M
        np.testing.assert_array_equal(s.M[:2, :2], s.mu.conj())
        np.testing.assert_array_equal(s.M[2:, :2], s.nu.conj())
        np.testing.assert_array_equal(s.r[2:], s.alpha.conj())
        u = G.compose(G.make_displacement([0.5j, 1.0]), G.random_gaussian_unitary(2, 8))
        for view in (u.C, u.S, u.d_alpha):
            assert view.base is u.G or view.base is u.d
        np.testing.assert_array_equal(u.G[:2, :2], u.C.conj())
        np.testing.assert_array_equal(u.d[2:], u.d_alpha.conj())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: G.GaussianState(alpha=[0], mu=[[np.nan]], nu=[[0]]),
            lambda: G.GaussianState(alpha=[np.inf], mu=[[1.0]], nu=[[0]]),
            lambda: G.GaussianState(alpha=[0], mu=[[1.0]], nu=[[np.nan]]),
        ],
    )
    def test_rejects_nonfinite_state(self, build):
        with pytest.raises(InvalidStateError):
            build()

    def test_rejects_nonfinite_occupation(self):
        with pytest.raises(DomainError):
            G.product_thermal([np.nan])
        with pytest.raises(DomainError):
            G.product_thermal([1e308])  # mu = nbar + 1/2 overflows when symmetrized


class TestInternalResultsValid:
    """Operations assemble their results unchecked; the constructors must accept them."""

    @staticmethod
    def _revalidate_state(s):
        checked = G.GaussianState(alpha=s.alpha, mu=s.mu, nu=s.nu)
        np.testing.assert_array_equal(checked.r, s.r)
        np.testing.assert_array_equal(checked.M, s.M)

    @staticmethod
    def _revalidate_unitary(u):
        checked = G.GaussianUnitary(C=u.C, S=u.S, d_alpha=u.d_alpha)
        np.testing.assert_array_equal(checked.G, u.G)
        np.testing.assert_array_equal(checked.d, u.d)

    @staticmethod
    def _random_input(rng, modes):
        parts = []
        for nb in rng.uniform(0.05, 3.0, size=modes):
            s = G.gibbs_state([G.GibbsMode(omega=math.log1p(1.0 / nb), beta=1.0)])
            s = G.apply_unitary(s, G.make_squeezer([rng.uniform(0.0, 1.0)]))
            s = G.apply_unitary(
                s, G.make_displacement([rng.standard_normal() + 1j * rng.standard_normal()])
            )
            parts.append(s)
        state = parts[0]
        for s in parts[1:]:
            state = G.tensor(state, s)
        return state

    def test_random_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            modes = int(rng.integers(1, 5))
            state = self._random_input(rng, modes)
            self._revalidate_state(state)
            u1 = G.random_gaussian_unitary(modes, rng)
            u2 = G.random_gaussian_unitary(modes, rng)
            self._revalidate_unitary(u1)
            u = G.compose(u2, u1)
            self._revalidate_unitary(u)
            out = G.apply_unitary(state, u)
            self._revalidate_state(out)
            keep = sorted(rng.choice(modes, size=int(rng.integers(1, modes + 1)), replace=False))
            self._revalidate_state(G.reduce(out, keep))
            self._revalidate_state(G.tensor(out, G.product_thermal([rng.uniform(0.0, 2.0)])))
        self._revalidate_unitary(G.identity_unitary(3))


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        s = G.product_thermal([0.7, 2.1])
        out = G.apply_unitary(s, G.identity_unitary(2))
        np.testing.assert_allclose(out.mu, s.mu, atol=1e-14)
        np.testing.assert_allclose(out.nu, s.nu, atol=1e-14)
        np.testing.assert_allclose(out.alpha, s.alpha, atol=1e-14)

    def test_swap_exchanges_occupations(self):
        s = G.product_thermal([1.0, 3.0])
        out = G.apply_unitary(s, G.make_swap(0, 1, 2))
        np.testing.assert_allclose(out.mean_excitations, [3.0, 1.0], atol=1e-14)

    def test_squeezer_on_vacuum(self):
        r = 0.5
        out = G.apply_unitary(G.product_thermal([0.0]), G.make_squeezer([r]))
        assert out.mu[0, 0].real == pytest.approx(math.cosh(r) ** 2 - 0.5, rel=1e-12)
        assert abs(out.nu[0, 0]) == pytest.approx(math.cosh(r) * math.sinh(r), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            G.apply_unitary(G.product_thermal([1.0]), G.identity_unitary(2))

    def test_overflow_is_one_domain_error_without_warnings(self):
        # mu = 1e307 squeezed by r = 2: G M G^dag overflows in the products,
        # reported by the refusal alone, not by numpy warnings first.
        state = G.product_thermal([1e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as raised:
                G.apply_unitary(state, G.make_squeezer([2.0]))
        assert str(raised.value) == "moments are not finite (overflow)"

    def test_determinant_conserved(self):
        rng = np.random.default_rng(7)
        for k in range(20):
            s = G.product_thermal(rng.uniform(0.0, 3.0, size=3))
            u = G.random_gaussian_unitary(3, rng)
            out = G.apply_unitary(s, u)
            d0 = np.linalg.det(s.M).real
            d1 = np.linalg.det(out.M).real
            assert d1 == pytest.approx(d0, rel=1e-8)


class TestCompose:
    def test_identity_neutral(self):
        u = G.random_gaussian_unitary(2, 5)
        c = G.compose(u, G.identity_unitary(2))
        np.testing.assert_allclose(c.G, u.G, atol=1e-14)
        np.testing.assert_allclose(c.d, u.d, atol=1e-14)

    def test_swap_involution(self):
        sw = G.make_swap(0, 1, 2)
        c = G.compose(sw, sw)
        np.testing.assert_allclose(c.G, np.eye(4), atol=1e-14)

    def test_squeezer_addition(self):
        c = G.compose(G.make_squeezer([0.3]), G.make_squeezer([0.45]))
        ref = G.make_squeezer([0.75])
        np.testing.assert_allclose(c.G, ref.G, atol=1e-12)

    def test_displacement_accumulates(self):
        c = G.compose(G.make_displacement([1.0 + 0.5j]), G.make_displacement([0.25]))
        np.testing.assert_allclose(c.d_alpha, [1.25 + 0.5j], atol=1e-14)


class TestConstructors:
    def test_passive_rejects_nonunitary(self):
        with pytest.raises(InvalidUnitaryError):
            G.make_passive(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_nonfinite_unitary(self):
        with pytest.raises(InvalidUnitaryError):
            G.make_squeezer([np.nan])
        with pytest.raises(InvalidUnitaryError):
            G.make_displacement([np.inf])
        with pytest.raises(InvalidUnitaryError):
            G.GaussianUnitary(C=[[np.nan]], S=[[0.0]])

    def test_beam_splitter_full_reflection_swaps(self):
        s = G.product_thermal([0.2, 1.7])
        out = G.apply_unitary(s, G.make_beam_splitter(0, 1, 2, math.pi / 2))
        np.testing.assert_allclose(out.mean_excitations, [1.7, 0.2], atol=1e-13)

    def test_haar_passive_preserves_total_excitation(self):
        rng = np.random.default_rng(11)
        s = G.product_thermal([0.5, 1.5, 2.5, 0.1])
        for _ in range(25):
            u = G.make_passive(G.haar_unitary(4, rng))
            out = G.apply_unitary(s, u)
            assert np.sum(out.mean_excitations) == pytest.approx(
                np.sum(s.mean_excitations), rel=1e-12
            )

    def test_unitary_invariants_random_sweep(self):
        rng = np.random.default_rng(3)
        eye = np.eye(3)
        for _ in range(200):
            u = G.random_gaussian_unitary(3, rng)
            c, s = u.C, u.S
            assert np.max(np.abs(c @ c.conj().T - (s @ s.conj().T).conj() - eye)) < 1e-10
            sc = s @ c.conj().T
            assert np.max(np.abs(sc - sc.T)) < 1e-10

    def test_random_unitary_zero_squeeze_is_passive(self):
        u = G.random_gaussian_unitary(3, 9, max_squeeze=0.0)
        assert np.max(np.abs(u.S)) < 1e-14

    def test_random_unitary_deterministic_in_seed(self):
        u1 = G.random_gaussian_unitary(4, 123)
        u2 = G.random_gaussian_unitary(4, 123)
        np.testing.assert_array_equal(u1.C, u2.C)
        np.testing.assert_array_equal(u1.S, u2.S)


class TestReduce:
    def test_marginal_of_product(self):
        s = G.product_thermal([0.5, 1.5, 2.5])
        out = G.reduce(s, [1])
        assert out.mean_excitations[0] == pytest.approx(1.5, abs=1e-14)

    def test_keep_all_is_identity(self):
        s = G.product_thermal([0.5, 1.5])
        out = G.reduce(s, [0, 1])
        np.testing.assert_allclose(out.mu, s.mu, atol=1e-15)

    def test_rejects_empty_or_bad_indices(self):
        s = G.product_thermal([1.0])
        with pytest.raises(DomainError):
            G.reduce(s, [])
        with pytest.raises(DomainError):
            G.reduce(s, [3])

    def test_two_mode_squeezed_marginal(self):
        # Independent oracle: raw matrix product G M G^dag, block-extracted.
        r = 0.8
        u = two_mode_squeezer(r)
        vac = G.product_thermal([0.0, 0.0])
        g = u.G
        m_out = g @ vac.M @ g.conj().T
        mu_expected = m_out[2, 2].real

        marg = G.reduce(G.apply_unitary(vac, u), [0])
        assert marg.mu[0, 0].real == pytest.approx(math.cosh(2 * r) / 2, rel=1e-12)
        assert marg.mu[0, 0].real == pytest.approx(mu_expected, rel=1e-14)
        assert abs(marg.nu[0, 0]) < 1e-14


class TestThermalExcitation:
    def test_gibbs_value(self):
        s = G.product_thermal([2.0])
        assert G.thermal_excitation(s) == pytest.approx(2.0, abs=1e-14)

    def test_squeezed_vacuum_is_pure(self):
        for r in (0.1, 0.7, 1.4):
            out = G.apply_unitary(G.product_thermal([0.0]), G.make_squeezer([r]))
            assert G.thermal_excitation(out) == pytest.approx(0.0, abs=1e-12)

    def test_displaced_gibbs(self):
        out = G.apply_unitary(G.product_thermal([2.0]), G.make_displacement([1 + 1j]))
        assert out.mean_excitations[0] == pytest.approx(4.0, rel=1e-13)
        assert G.thermal_excitation(out) == pytest.approx(2.0, abs=1e-13)

    def test_invariant_under_single_mode_unitaries(self):
        rng = np.random.default_rng(21)
        s = G.product_thermal([1.3])
        for _ in range(50):
            u = G.random_gaussian_unitary(1, rng)
            out = G.apply_unitary(s, u)
            assert G.thermal_excitation(out) == pytest.approx(1.3, rel=1e-9)

    def test_requires_single_mode(self):
        with pytest.raises(DimensionMismatchError):
            G.thermal_excitation(G.product_thermal([1.0, 2.0]))


def _stack(objs):
    """Stack single states or unitaries along a new leading axis, as the
    internal operations assemble their stacked results."""
    out = object.__new__(type(objs[0]))
    for f in dataclasses.fields(out):
        object.__setattr__(out, f.name, np.stack([getattr(o, f.name) for o in objs]))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBroadcasting:
    """Operations on stacks equal the per-object results slice by slice, bit for bit."""

    T = 5

    @staticmethod
    def _inputs(modes, seed, t):
        rng = np.random.default_rng(seed)
        states = [TestInternalResultsValid._random_input(rng, modes) for _ in range(t)]
        unitaries = [
            G.compose(
                G.make_displacement(rng.standard_normal(modes) + 1j * rng.standard_normal(modes)),
                G.random_gaussian_unitary(modes, rng),
            )
            for _ in range(t)
        ]
        return states, unitaries

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_apply_compose_reduce_mean_excitations(self, modes):
        states, us = self._inputs(modes, 100 + modes, self.T)
        assert all(np.any(s.nu != 0) and np.any(s.alpha != 0) for s in states)
        assert all(np.any(u.S != 0) and np.any(u.d != 0) for u in us)
        s_stack, u_stack = _stack(states), _stack(us)
        keep = list(range(modes))[::-1][: max(1, modes - 1)]

        out = G.apply_unitary(s_stack, u_stack)
        out_single_state = G.apply_unitary(states[0], u_stack)
        comp = G.compose(u_stack, _stack(us[::-1]))
        comp_single_left = G.compose(us[0], u_stack)
        red = G.reduce(out, keep)
        for t in range(self.T):
            ref = G.apply_unitary(states[t], us[t])
            assert _same_bits(out.r[t], ref.r) and _same_bits(out.M[t], ref.M)
            assert _same_bits(out.mean_excitations[t], ref.mean_excitations)
            ref0 = G.apply_unitary(states[0], us[t])
            assert _same_bits(out_single_state.r[t], ref0.r)
            assert _same_bits(out_single_state.M[t], ref0.M)
            ref_c = G.compose(us[t], us[self.T - 1 - t])
            assert _same_bits(comp.G[t], ref_c.G) and _same_bits(comp.d[t], ref_c.d)
            ref_l = G.compose(us[0], us[t])
            assert _same_bits(comp_single_left.G[t], ref_l.G)
            assert _same_bits(comp_single_left.d[t], ref_l.d)
            ref_r = G.reduce(ref, keep)
            assert _same_bits(red.r[t], ref_r.r) and _same_bits(red.M[t], ref_r.M)

        marginals = G.reduce(out, [0])
        nth = G.thermal_excitation(marginals)
        assert nth.shape == (self.T,)
        for t in range(self.T):
            single = G.thermal_excitation(G.reduce(G.apply_unitary(states[t], us[t]), [0]))
            assert type(single) is float
            assert _same_bits(nth[t], single)

    def test_stacked_factories_equal_single_factories(self):
        rng = np.random.default_rng(7)
        draws = [G.gaussian_unitary_draws(3, rng) for _ in range(self.T)]
        stacked = G.gaussian_unitary_from_draws(*(np.stack(c) for c in zip(*draws)))
        nbars = rng.uniform(0.0, 3.0, size=(self.T, 3))
        thermal = G.product_thermal(nbars)
        for t in range(self.T):
            single = G.gaussian_unitary_from_draws(*draws[t])
            assert _same_bits(stacked.G[t], single.G) and _same_bits(stacked.d[t], single.d)
            ref = G.product_thermal(nbars[t])
            assert _same_bits(thermal.r[t], ref.r) and _same_bits(thermal.M[t], ref.M)

    def test_stack_is_checked_once_over_every_slice(self):
        c = np.stack([G.haar_unitary(3, np.random.default_rng(k)) for k in range(4)])
        assert G.make_passive(c).G.shape == (4, 6, 6)
        c[2, 0, 1] += 1e-3
        with pytest.raises(InvalidUnitaryError):
            G.make_passive(c)

    def test_thermal_excitation_matches_python_abs_over_magnitudes(self):
        # Moduli of nu from 1e-150 to 1e150, and exact zeros.
        rng = np.random.default_rng(31)
        n = 400
        nu = 10.0 ** rng.uniform(-150, 150, n) * np.exp(2j * math.pi * rng.uniform(size=n))
        nu[::50] = 0.0
        mu = np.hypot(0.5, np.abs(nu)) * (1.0 + rng.uniform(0.0, 1.0, n))
        stack = G._state(np.zeros((n, 1)), mu[:, None, None], nu[:, None, None])
        got = G.thermal_excitation(stack)
        for k in range(n):
            # The excess form, from n = mu - 1/2.
            n_k = float(stack.mu[k, 0, 0].real) - 0.5
            nu_abs = abs(complex(stack.nu[k, 0, 0]))
            if nu_abs == 0.0:
                want = max(n_k, 0.0)
            else:
                excess = n_k * (n_k + 1.0) - nu_abs * nu_abs
                want = max(excess, 0.0) / (math.sqrt(max(excess + 0.25, 0.25)) + 0.5)
            assert _same_bits(got[k], want)
            single = G._state(np.zeros(1), mu[k : k + 1, None], nu[k : k + 1, None])
            assert _same_bits(G.thermal_excitation(single), want)

    def test_thermal_excitation_rejects_a_stack_with_one_bad_state(self):
        mu = np.array([1.0, 0.6, 2.0])
        nu = np.array([0.1, 0.5, 0.3])  # the middle state violates mu^2 - |nu|^2 >= 1/4
        stack = G._state(np.zeros((3, 1)), mu[:, None, None], nu[:, None, None].astype(complex))
        with pytest.raises(InvalidStateError):
            G.thermal_excitation(stack)


def _rebuilt_tensor(a, b):
    """``tensor`` as the block direct sum of (alpha, mu, nu), rebuilt by ``_state``."""
    ja, jb = a.modes, b.modes
    mu = np.zeros((ja + jb, ja + jb), dtype=complex)
    nu = np.zeros_like(mu)
    mu[:ja, :ja], mu[ja:, ja:] = a.mu, b.mu
    nu[:ja, :ja], nu[ja:, ja:] = a.nu, b.nu
    return G._state(np.concatenate([a.alpha, b.alpha]), mu, nu)


def _rebuilt_reduce(state, keep):
    """``reduce`` as the (alpha, mu, nu) of the kept modes, rebuilt by ``_state``."""
    idx = np.array(keep)
    rows = idx[:, None]
    return G._state(state.alpha[..., idx], state.mu[..., rows, idx], state.nu[..., rows, idx])


class TestStoredMoments:
    """``tensor`` and ``reduce`` give the bits of rebuilding their result from
    (alpha, mu, nu) by ``_state``."""

    @staticmethod
    def _states(seed, modes):
        rng = np.random.default_rng(seed)
        states, _ = TestBroadcasting._inputs(modes, seed, 3)
        out = [G.apply_unitary(s, G.random_gaussian_unitary(modes, rng)) for s in states]
        assert all(np.any(s.nu != 0) and np.any(s.alpha != 0) for s in out)
        return out + [G.product_thermal(rng.uniform(0.0, 2.0, modes))]

    @pytest.mark.parametrize("ja, jb", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_tensor(self, ja, jb):
        for a in self._states(10 * ja + jb, ja):
            for b in self._states(100 + 10 * ja + jb, jb):
                got, want = G.tensor(a, b), _rebuilt_tensor(a, b)
                assert _same_bits(got.r, want.r) and _same_bits(got.M, want.M)
                assert not (got.r.flags.writeable or got.M.flags.writeable)

    @pytest.mark.parametrize("modes", [1, 2, 4])
    def test_reduce(self, modes):
        keeps = [[0], [modes - 1], list(range(modes))[::-1], [0, 0], list(range(modes))[1:] or [0]]
        states = self._states(40 + modes, modes)
        for state in states + [_stack(states)]:
            for keep in keeps:
                got, want = G.reduce(state, keep), _rebuilt_reduce(state, keep)
                assert _same_bits(got.r, want.r) and _same_bits(got.M, want.M)
                assert not (got.r.flags.writeable or got.M.flags.writeable)

    def test_protocol_marginal_chain(self):
        # tensor -> apply_unitary -> reduce, as a run_protocol round does.
        system, machine = self._states(7, 1)[0], self._states(8, 2)[1]
        u = G.random_gaussian_unitary(3, 5)
        got = G.reduce(G.apply_unitary(G.tensor(system, machine), u), [0])
        want = _rebuilt_reduce(G.apply_unitary(_rebuilt_tensor(system, machine), u), [0])
        assert _same_bits(got.r, want.r) and _same_bits(got.M, want.M)
        assert _same_bits(G.thermal_excitation(got), G.thermal_excitation(_stack([want]))[0])


class TestThermalExcitationOneState:
    """The Python-float path for one state against the stacked path."""

    def test_agrees_with_a_stack_of_one(self):
        for state in TestStoredMoments._states(3, 1) + [
            G.reduce(s, [0]) for s in TestStoredMoments._states(4, 3)
        ]:
            single = G.thermal_excitation(state)
            assert type(single) is float
            assert _same_bits(single, G.thermal_excitation(_stack([state]))[0])

    def test_same_refusal_as_the_stacked_path(self):
        state = G._state(np.zeros(1), np.array([[0.6]]), np.array([[0.5 + 0j]]))
        with pytest.raises(InvalidStateError) as one:
            G.thermal_excitation(state)
        with pytest.raises(InvalidStateError) as stacked:
            G.thermal_excitation(_stack([state]))
        assert str(one.value) == str(stacked.value)

    def test_overflowing_modulus_gives_what_numpy_gives(self):
        # |nu| above float max: Python's abs(complex) raises, np.hypot gives inf.
        # mu^2 - |nu|^2 is then inf - inf = nan, refused on both paths.
        nu = 1.5e308 + 1.5e308j
        m = np.array([[1e308, nu], [nu.conjugate(), 1e308]])
        # Stored as it is: _state's symmetrization would overflow on these moments.
        state = object.__new__(G.GaussianState)
        object.__setattr__(state, "r", np.zeros(2, dtype=complex))
        object.__setattr__(state, "M", m)
        with np.errstate(over="ignore"):
            modulus = np.abs(nu)
        text = (
            "double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08 at this"
            f" squeezing: mu = 1e+308, |nu| = {modulus}"
        )
        for s in (state, _stack([state])):
            with pytest.raises(InvalidStateError) as raised:
                G.thermal_excitation(s)
            assert str(raised.value) == text

    def test_unresolvable_squeezing_is_named(self):
        # mu = |nu| = 3.5e15: mu^2 - |nu|^2 rounds to 0, but its rounding
        # error, about 4 eps mu^2, is far above 1/4.
        mu = 3542125716083375.5
        state = G._state(np.zeros(1), np.array([[mu]]), np.array([[mu + 0j]]))
        text = (
            "double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08 at this"
            f" squeezing: mu = {mu}, |nu| = {mu}"
        )
        for s in (state, _stack([state])):
            with pytest.raises(InvalidStateError) as raised:
                G.thermal_excitation(s)
            assert str(raised.value) == text

    def test_violation_keeps_floor_message(self):
        with pytest.raises(InvalidStateError) as raised:
            G._thermal_excitation_one(0.0, 0.3 + 0j)  # mu = 1/2
        assert str(raised.value) == "mu^2 - |nu|^2 = 0.16 below the uncertainty floor 1/4"

    @pytest.mark.parametrize("mu, nu", [
        (3.7621956910836316e307, 3.626860407847019e307 + 0j),  # simulate-gaussian's round 1
        (1.5e154, 1.5e154j),
        (1e300, -1e300 + 0j),
    ])
    def test_overflowing_squares_are_refused(self, mu, nu):
        # mu^2 and |nu|^2 both overflow: mu^2 - |nu|^2 is inf - inf = nan,
        # which no test may pass.
        state = G._state(np.zeros(1), np.array([[mu]]), np.array([[nu]]))
        text = (
            "double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08 at this"
            f" squeezing: mu = {mu}, |nu| = {abs(nu)}"
        )
        for s in (state, _stack([state])):
            with pytest.raises(InvalidStateError) as raised:
                G.thermal_excitation(s)
            assert str(raised.value) == text

    def test_overflowing_mu_square_alone_is_refused(self):
        # mu^2 overflows but |nu|^2 does not: mu^2 - |nu|^2 is inf, which
        # would make nth inf.
        mu, nu = 1e200, 2e153 + 0j
        state = G._state(np.zeros(1), np.array([[mu]]), np.array([[nu]]))
        text = (
            "double precision cannot resolve mu^2 - |nu|^2 to a relative 1e-08 at this"
            f" squeezing: mu = {mu}, |nu| = {abs(nu)}"
        )
        for s in (state, _stack([state])):
            with pytest.raises(InvalidStateError) as raised:
                G.thermal_excitation(s)
            assert str(raised.value) == text


class TestEffectiveBeta:
    def test_inverse_pair(self):
        beta, omega = 0.8, 1.7
        nbar = G.GibbsMode(omega=omega, beta=beta).nbar
        assert G.effective_beta(nbar, omega) == pytest.approx(beta, rel=1e-13)

    def test_unit_case(self):
        assert G.effective_beta(1.0, math.log(2)) == pytest.approx(1.0, rel=1e-14)

    def test_asymptote_plugin(self):
        assert G.effective_beta(0.5625, 1.0) == pytest.approx(
            math.log(25 / 9), rel=1e-13
        )

    def test_pure_state_sentinel(self):
        assert G.effective_beta(0.0, 1.0) == math.inf


class TestEntropy:
    def test_pure(self):
        assert G.vn_entropy_single_mode(0.0) == 0.0

    def test_closed_form_nbar_one(self):
        assert G.vn_entropy_single_mode(1.0) == pytest.approx(2 * math.log(2), rel=1e-14)

    def test_matches_series(self):
        # Direct series oracle: -sum p_n ln p_n with p_n = nbar^n/(nbar+1)^{n+1}.
        nbar = 2.0
        n = np.arange(4000)
        logp = n * math.log(nbar) - (n + 1) * math.log(nbar + 1)
        series = -np.sum(np.exp(logp) * logp)
        assert G.vn_entropy_single_mode(nbar) == pytest.approx(series, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=50)
    def test_nonnegative_and_increasing(self, nbar):
        s = G.vn_entropy_single_mode(nbar)
        assert s >= 0.0
        assert G.vn_entropy_single_mode(nbar * 1.01) > s

    @staticmethod
    def _reference(nbar):
        """(n+1) ln(n+1) - n ln n at 50 digits; log1p keeps ln(1+n) exact at
        tiny n, where a 50-digit log(n + 1) still rounds n away."""
        with mpmath.workdps(50):
            n = mpmath.mpf(nbar)
            return (n + 1) * mpmath.log1p(n) - n * mpmath.log(n)

    @pytest.mark.parametrize("nbar", [1e-300, 1e-200, 1e-100, 1e-30, 1e-8, 1e-3, 0.37, 1.0,
                                      7.5, 1e3, 1e8, 1e12, 1e15])
    def test_matches_fifty_digit_reference(self, nbar):
        ref = self._reference(nbar)
        assert float(abs(G.vn_entropy_single_mode(nbar) - ref) / ref) < 1e-14

    @pytest.mark.parametrize("nbar", [5e-324, 1e-310, 1.0 / sys.float_info.max, 2e-308])
    def test_below_inverse_float_max_without_warning(self, nbar):
        # 1/n overflows at and below 1/float max (rounded down); an np.float64
        # input must not warn there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = G.vn_entropy_single_mode(np.float64(nbar))
            assert G.vn_entropy_single_mode(nbar) == s
        # At n = 5e-324 the entropy is subnormal and carries only its spacing.
        ref = self._reference(nbar)
        assert abs(s - ref) <= max(1e-14 * ref, 5e-324)


class TestLemmaProperties:
    """Randomized spot checks; the full-size sweeps live in the acceptance suite."""

    def test_eigenvalue_domination(self):
        # L with all singular values >= 1 versus a random PSD matrix.
        rng = np.random.default_rng(17)
        for _ in range(100):
            j = 4
            a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
            u, _, vh = np.linalg.svd(a)
            l = u @ np.diag(1.0 + rng.uniform(0, 2, j)) @ vh
            b = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
            o = b @ b.conj().T
            ev_in = np.sort(np.linalg.eigvalsh(o))
            ev_out = np.sort(np.linalg.eigvalsh(l @ o @ l.conj().T))
            assert np.all(ev_out >= ev_in - 1e-10)

    def test_output_partial_sums_dominate(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            nbars = rng.uniform(0.05, 3.0, size=4)
            s = G.product_thermal(nbars)
            u = G.random_gaussian_unitary(4, rng)
            out = G.apply_unitary(s, u).mean_excitations
            asc_in = np.sort(nbars)
            asc_out = np.sort(out)
            for k in range(1, 5):
                assert np.sum(asc_out[:k]) >= np.sum(asc_in[:k]) - 1e-9

    def test_min_thermal_excitation_bound_and_swap_saturation(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            nbars = rng.uniform(0.0, 3.0, size=3)
            modes = [
                G.apply_unitary(
                    G.apply_unitary(
                        G.product_thermal([nb]), G.make_squeezer([rng.uniform(0, 1)])
                    ),
                    G.make_displacement([rng.standard_normal() + 1j * rng.standard_normal()]),
                )
                for nb in nbars
            ]
            state = G.tensor(G.tensor(modes[0], modes[1]), modes[2])
            u = G.random_gaussian_unitary(3, rng)
            out = G.reduce(G.apply_unitary(state, u), [0])
            assert G.thermal_excitation(out) >= np.min(nbars) - 1e-9

            best = int(np.argmin(nbars))
            swapped = G.apply_unitary(state, G.make_swap(0, best, 3))
            got = G.thermal_excitation(G.reduce(swapped, [0]))
            assert got == pytest.approx(np.min(nbars), abs=1e-10)
