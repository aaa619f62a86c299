import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosecool import collisions as C
from bosecool import fock as F
from bosecool.errors import DomainError, ValidityError


def params(p=2, chi=1.0, t=5e-3, ns=2.0, nm=1.5, **kw):
    return C.CollisionParams(p=p, chi=chi, t=t, nbar_s0=ns, nbar_m=nm, **kw)


class TestParams:
    def test_validity_warning(self):
        with pytest.warns(UserWarning):
            params(p=3, t=0.2, nm=3.0)

    @pytest.mark.parametrize(
        "kw", [dict(t=1e300), dict(chi=1e200), dict(chi=1e156), dict(p=200), dict(chi=math.nan)]
    )
    def test_overflowing_coefficients_rejected(self, kw):
        # chi=1e156 overflows a product, not a power; p=200 overflows p!.
        with pytest.raises(DomainError, match="not finite"):
            params(**kw)

    @pytest.mark.parametrize("p, nm", [(1, 1e17), (1, 1e16), (2, 1e33)])
    def test_cancelled_contraction_rejected(self, p, nm):
        # On a hot machine (1+nbar_M)^p - nbar_M^p rounds to 0 while b > 0;
        # taken as "no coupling", the closed form would return nbar_S0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="cancels"):
                C.CollisionParams(p=p, chi=1.0, t=5e-3, nbar_s0=2.0, nbar_m=nm)
            with pytest.raises(DomainError, match="cancels"):
                C.cooling_threshold_nbar(p, nm)

    @pytest.mark.parametrize("kw", [dict(chi=0.0), dict(t=0.0), dict(chi=1e-200, nm=1e17)])
    def test_no_coupling_is_not_a_cancellation(self, kw):
        # a = b = 0 is no coupling: nothing moves.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prm = params(p=1, **kw)
            assert (prm.a, prm.b) == (0.0, 0.0)
            assert C.iterate_closed_form(prm, 5) == prm.nbar_s0

    def test_perturbative_flag(self):
        assert params(t=5e-3).is_perturbative
        with pytest.warns(UserWarning):
            assert not params(p=3, t=0.2, nm=3.0).is_perturbative


class TestShortTimeUpdate:
    def test_zero_time_unchanged(self):
        assert C.short_time_update(params(t=0.0)) == 2.0

    def test_threshold_input_unchanged(self):
        thr = C.cooling_threshold_nbar(2, 1.5)
        pr = params(ns=thr)
        assert C.short_time_update(pr) == pytest.approx(thr, abs=1e-15)

    def test_arithmetic_example(self):
        pr = params(t=1e-2)
        assert C.short_time_update(pr) - 2.0 == pytest.approx(-1.15e-3, rel=1e-12)


class TestCoolingCondition:
    def test_gaussian_case_needs_higher_frequency(self):
        assert not C.cooling_condition(1, 1.0, 1.0)
        assert C.cooling_condition(1, 1.0, 1.2)

    def test_low_frequency_machine_ok_for_p2(self):
        assert C.cooling_condition(2, 1.0, 0.6)

    def test_threshold_value(self):
        assert C.cooling_threshold_nbar(2, 1.5) == pytest.approx(0.5625, rel=1e-14)
        assert C.cooling_threshold_nbar(3, 1.5) == pytest.approx(
            3.375 / (15.625 - 3.375), rel=1e-14
        )

    def test_threshold_equals_boosted_thermal(self):
        # For a thermal machine the threshold is the occupation at p-fold gap.
        beta, omega1 = 0.7, 0.9
        nm = 1.0 / math.expm1(beta * omega1)
        for p in (1, 2, 3, 4):
            assert C.cooling_threshold_nbar(p, nm) == pytest.approx(
                1.0 / math.expm1(p * beta * omega1), rel=1e-11
            )

    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.05, max_value=8.0),
        st.floats(min_value=1e-4, max_value=20.0),
    )
    @settings(max_examples=200)
    def test_update_direction_matches_threshold(self, p, nm, ns):
        thr = C.cooling_threshold_nbar(p, nm)
        if abs(ns - thr) < 1e-9 * max(1.0, thr):
            return
        pr = C.CollisionParams(p=p, chi=1.0, t=1e-4, nbar_s0=ns, nbar_m=nm)
        change = C.short_time_update(pr) - ns
        assert (change < 0) == (ns > thr)


class TestCrossingTime:
    def test_boundary_zero(self):
        assert C.crossing_time(params(ns=1.5)) == 0.0

    def test_p1_example(self):
        assert C.crossing_time(params(p=1, ns=2.0, nm=1.5)) == pytest.approx(1.0, rel=1e-12)

    def test_no_crossing(self):
        assert C.crossing_time(params(ns=0.2, nm=1.5)) is None

    def test_no_coupling_no_crossing(self):
        assert C.crossing_time(params(chi=0.0)) is None

    def test_sign_of_coupling_irrelevant(self):
        # Only (chi t)^2 enters the dynamics.
        assert C.crossing_time(params(chi=-1.0)) == C.crossing_time(params(chi=1.0)) > 0

    def test_oracle_crossing_within_ten_percent(self):
        pr = params(p=2, ns=2.0, nm=1.5)
        tc = C.crossing_time(pr)
        cut = F.FockCutoff.for_occupations(2.0, 1.5, p=2, tail_tol=1e-12)
        h = F.build_hamiltonian(
            p=2, chi=1.0, omega0=math.log1p(0.5), omega1=math.log1p(1 / 1.5), cutoff=cut
        )
        rho = F.FockDensity.gibbs(2.0, cut.d_s, tail_tol=1e-11)

        def n_of(t):
            return F.mean_excitation(F.single_collision(rho, 1.5, h, t, tail_tol=1e-11))

        lo, hi = 0.5 * tc, 2.0 * tc
        assert n_of(lo) > 1.5 > n_of(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if n_of(mid) > 1.5:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(tc, rel=0.1)


class TestIteratedClosedForm:
    def test_round_zero_is_initial(self):
        assert C.iterate_closed_form(params(), 0) == 2.0

    def test_matches_direct_recursion(self):
        pr = params()
        n, m2 = 2.0, 2 * 4 + 2.0
        for rounds in range(1, 400):
            m2 = (1 - 2 * pr.a) * m2 + pr.c_fano * n + pr.b
            n = (1 - pr.a) * n + pr.b
        assert C.iterate_closed_form(pr, 399) == pytest.approx(n, rel=1e-12)
        assert C.second_moment_closed_form(pr, 399) == pytest.approx(m2, rel=1e-12)

    def test_p1_asymptote_is_machine_occupation(self):
        assert C.asymptote(params(p=1)) == pytest.approx(1.5, rel=1e-14)

    def test_p2_p3_asymptotes(self):
        assert C.asymptote(params(p=2)) == pytest.approx(0.5625, rel=1e-14)
        assert C.asymptote(params(p=3)) == pytest.approx(3.375 / 12.25, rel=1e-12)

    def test_asymptote_is_fixed_point_of_update(self):
        for p in (1, 2, 3):
            pr = params(p=p, nm=0.8)
            n_inf = C.asymptote(pr)
            fixed = C.CollisionParams(
                p=p, chi=pr.chi, t=pr.t, nbar_s0=n_inf, nbar_m=pr.nbar_m
            )
            assert C.short_time_update(fixed) == pytest.approx(n_inf, abs=1e-14)

    def test_monotone_approach(self):
        pr = params()
        vals = [C.iterate_closed_form(pr, l) for l in range(0, 30000, 500)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > C.asymptote(pr)

    def test_contraction_out_of_range_raises(self):
        with pytest.raises(ValidityError), pytest.warns(UserWarning):
            C.iterate_closed_form(params(p=3, t=2.0, nm=3.0), 10)

    def test_rate_scales_with_p_factorial(self):
        # Contraction per round, with the occupation bracket divided out,
        # grows exactly as p!.
        chit2 = (5e-3) ** 2
        for p in (1, 2, 3, 4):
            pr = params(p=p)
            bracket = 2.5**p - 1.5**p
            assert pr.a / bracket == pytest.approx(
                chit2 * math.factorial(p), rel=1e-12
            )


class TestFano:
    def test_zero_coupling_zero(self):
        pr = params(chi=0.0)
        for rounds in (1, 10, 100):
            assert C.fano_closed_form(pr, rounds) == 0.0

    def test_identity_behind_vanishing_excess(self):
        pr = params(p=3, nm=2.2)
        assert pr.c_fano == pytest.approx(pr.a + 4 * pr.b, rel=1e-12)

    def test_limit_is_zero_for_all_p(self):
        for p in (1, 2, 3):
            pr = params(p=p)
            assert abs(C.fano_closed_form(pr, 4_000_000)) < 1e-12

    def test_tracks_oracle_absolutely(self):
        # Both trajectories carry an excess variance of order a^2 * rounds;
        # the closed form reproduces the oracle's scale but not its sign
        # (genuine fourth-order physics lives at the same order).
        pr = params(p=2)
        cut = F.FockCutoff.for_occupations(2.0, 1.5, p=2, tail_tol=1e-12)
        h = F.build_hamiltonian(
            p=2, chi=1.0, omega0=math.log1p(0.5), omega1=math.log1p(1 / 1.5), cutoff=cut
        )
        rho = F.FockDensity.gibbs(2.0, cut.d_s, tail_tol=1e-11)
        tr = F.iterate_collisions(rho, 1.5, h, 5e-3, 2000, tail_tol=1e-11)
        for rounds in (100, 500, 1000, 2000):
            q_closed = C.fano_closed_form(pr, rounds)
            q_oracle = tr.fano_q[rounds - 1]
            assert abs(q_closed - q_oracle) < 1e-4
            assert abs(q_closed) < 1e-3 and abs(q_oracle) < 1e-3

    @pytest.mark.parametrize(
        "ns, line",
        [
            (1e200, "the Gibbs second moment 2 n0^2 + n0 overflows at nbar_S0=1e+200"),
            (1e154, "the Gibbs second moment 2 n0^2 + n0 overflows at nbar_S0=1e+154"),
            (math.nan, "occupations must be finite, got nbar_S0=nan, nbar_M=1.5"),
            (math.inf, "occupations must be finite, got nbar_S0=inf, nbar_M=1.5"),
        ],
        ids=["1e+200", "1e+154", "nan", "inf"],
    )
    def test_overflowing_second_moment_is_refused(self, ns, line):
        # n0**2 overflows at 1e200 (a raw OverflowError); at 1e154 it is
        # finite and 2 n0^2 overflows to inf (an inf witness).  A non-finite
        # occupation is refused when the parameters are built.
        for closed_form in (C.second_moment_closed_form, C.fano_closed_form):
            with pytest.raises(DomainError, match=re.escape(line)):
                closed_form(params(p=1, t=1e-3, ns=ns), 1)

    @pytest.mark.parametrize(
        "mean_n",
        [1e200, np.float64(1e200), math.inf, math.nan],
        ids=["float", "float64", "inf", "nan"],
    )
    def test_overflowing_mean_square_is_refused(self, mean_n):
        # The Fock oracle passes numpy scalars; they must not square to inf.
        line = f"<n>^2 is not finite at mean occupation {mean_n}"
        with warnings.catch_warnings(), pytest.raises(DomainError, match=re.escape(line)):
            warnings.simplefilter("error")
            C.fano_factor(mean_n, 1e300)

    def test_oracle_and_closed_form_share_one_witness(self):
        assert F.fano_factor is C.fano_factor

    @pytest.mark.parametrize("p, rounds", [(1, 1), (2, 7), (3, 500), (2, 4_000_000)])
    def test_closed_form_is_the_witness_of_the_closed_moments(self, p, rounds):
        pr = params(p=p)
        want = C.fano_factor(
            C.iterate_closed_form(pr, rounds), C.second_moment_closed_form(pr, rounds)
        )
        assert C.fano_closed_form(pr, rounds).hex() == want.hex()
