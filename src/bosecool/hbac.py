"""Swap-chain heat-bath algorithmic cooling of a bosonic mode.

A machine of N harmonic modes (frequencies omega_1 <= ... <= omega_N, all
thermalized at inverse temperature beta) is coupled to a system mode at
omega_0 through a Gaussian recharging unitary; after every round the machine
is reset to its Gibbs state.  This module provides the reachable cooling
limit, the optimal swap-chain recharger, round-by-round protocol traces (one
column per quantity, one entry per round), and the entropy-production
bookkeeping that certifies optimality.  As the machine enters every round
fresh, a round acts on the system alone as a one-mode Gaussian channel; the
traces iterate that channel on three numbers, the system's alpha, nu and
excess occupation mu - 1/2.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import gaussian as G
from .errors import DimensionMismatchError, DomainError

# Eigenvalues of 2 Z M must be real to this tolerance before being accepted
# as symplectic eigenvalues.
SYMPLECTIC_EIG_IMAG_TOL = 1e-9

# Entropy production from heat and single-mode entropies matches its split
# D + I to this level in the tests; reported as metadata by the CLI.  nth,
# which Sigma takes through the system's entropy, is refused where double
# precision cannot resolve it to the same level.
SIGMA_PRECISION = G.NTH_PRECISION


@dataclass(frozen=True)
class MachineSpec:
    """System frequency, machine spectrum, and common inverse temperature."""

    beta: float
    omega0: float
    omegas: tuple

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        if not omegas:
            raise DomainError("machine needs at least one mode")
        values = (self.beta, self.omega0, *omegas)
        if not all(math.isfinite(x) for x in values):
            raise DomainError("beta and all frequencies must be finite")
        if min(values) <= 0:
            raise DomainError("beta and all frequencies must be positive")
        if any(b < a for a, b in zip(omegas, omegas[1:])):
            raise DomainError(f"machine frequencies must be nondecreasing: {omegas}")
        top = self.beta * max(self.omega0, omegas[-1])
        if top > G.GAP_MAX:
            raise DomainError(f"beta*omega = {top:.6g} overflows the thermal occupation")
        low = self.beta * min(self.omega0, omegas[0])
        if low <= 1.0 / sys.float_info.max:  # 1/(e^low - 1) = 1/low is not finite
            raise DomainError(f"beta*omega = {low:.6g} underflows the thermal occupation")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "omega0", float(self.omega0))

    @property
    def n_machine(self) -> int:
        return len(self.omegas)

    @property
    def lam(self) -> float:
        """Frequency ratio omega_N / omega_0."""
        return self.omegas[-1] / self.omega0

    @property
    def j0(self) -> int | None:
        """1-based index of the first machine mode above omega0, or None."""
        for j, w in enumerate(self.omegas, start=1):
            if w > self.omega0:
                return j
        return None

    @property
    def cooling_possible(self) -> bool:
        return self.j0 is not None

    def nbar(self, omega: float) -> float:
        return 1.0 / math.expm1(self.beta * omega)

    @property
    def nbar_system(self) -> float:
        return self.nbar(self.omega0)

    @property
    def machine_nbars(self) -> np.ndarray:
        return np.array([self.nbar(w) for w in self.omegas])

    def machine_state(self) -> G.GaussianState:
        return G.product_thermal(self.machine_nbars)

    def initial_system(self) -> G.GaussianState:
        return G.product_thermal([self.nbar_system])


@dataclass(frozen=True)
class RoundRecord:
    """State of the protocol after one recharging + reset round."""

    round_index: int
    nth: float
    beta_eff: float
    heat: float  # cumulative dissipated heat
    sigma: float  # cumulative entropy production
    sigma_round: float


@dataclass(frozen=True)
class CoolingTrace:
    """The protocol's columns: entry l - 1 of each list, a Python float, is round l."""

    nth: list
    beta_eff: list
    heat: list  # cumulative dissipated heat
    sigma: list  # cumulative entropy production
    sigma_round: list

    @property
    def final(self) -> RoundRecord:
        return RoundRecord(
            len(self.nth), self.nth[-1], self.beta_eff[-1], self.heat[-1], self.sigma[-1],
            self.sigma_round[-1],
        )


def gaussian_cooling_limit(spec: MachineSpec) -> tuple[float, float]:
    """Reachable effective inverse temperature and the ratio that sets it.

    Returns (beta_star, lam) with beta_star = (omega_N / omega_0) * beta.
    Gaussian protocols cannot cool the system below this value, and a single
    swap-chain round attains it.
    """
    lam = spec.lam
    return lam * spec.beta, lam


def build_swap_chain(spec: MachineSpec) -> G.GaussianUnitary:
    """Optimal Gaussian recharger: swap the system up the machine ladder.

    The chain of swaps (0, j0), (0, j0+1), ..., (0, N), where j0 = ``spec.j0``
    is the first mode above omega0, is one cyclic permutation of the modes:
    along the cycle (0, j0, j0+1, ..., N) each mode moves to the next, and
    mode N moves to the system.  Modes at or below omega0 stay in place (they
    cannot help).  The permutation is built and validated as one passive
    unitary.  If no machine mode lies above omega0 (``spec.cooling_possible``
    is False) the identity is returned.
    """
    n = spec.n_machine
    j0 = spec.j0
    if j0 is None:
        return G.identity_unitary(n + 1)
    rows = [n, *range(1, j0), 0, *range(j0, n)]  # mode i receives mode rows[i]
    return G.make_passive(np.eye(n + 1, dtype=complex)[rows])


def symplectic_nbars(state: G.GaussianState) -> np.ndarray:
    """Thermal occupations of the normal modes: symplectic eigenvalues - 1/2.

    The symplectic eigenvalues of M are the positive spectrum of 2 Z M; for a
    J-mode state they come in +/- pairs whose magnitudes are returned sorted
    ascending.
    """
    j = state.modes
    m = state.M
    zm2 = np.vstack([m[:j], -m[j:]])  # 2 Z M
    vals = np.linalg.eigvals(zm2)
    if np.max(np.abs(vals.imag)) > SYMPLECTIC_EIG_IMAG_TOL * max(1.0, np.max(np.abs(vals))):
        raise DomainError("symplectic eigenvalues are not real; invalid moment matrix")
    mags = np.sort(np.abs(vals.real))
    paired = mags.reshape(j, 2).mean(axis=1)
    return np.maximum(paired - 0.5, 0.0)


def state_entropy(state: G.GaussianState) -> float:
    """Von Neumann entropy of a Gaussian state from its symplectic spectrum."""
    return float(sum(G.vn_entropy_single_mode(n) for n in symplectic_nbars(state)))


def entropy_production_star(spec: MachineSpec) -> float:
    """Minimum entropy production of any recharger that reaches the limit.

    Sum of relative entropies along the swap ladder, from the system up
    through the modes above omega0 (``gaussian.relative_entropy_chain``);
    zero (nothing to do) when no machine mode exceeds omega0.
    """
    j0 = spec.j0
    if j0 is None:
        return 0.0
    return G.relative_entropy_chain(np.array([spec.nbar_system, *spec.machine_nbars[j0 - 1 :]]))


def run_protocol(
    spec: MachineSpec, recharger: G.GaussianUnitary, rounds: int
) -> CoolingTrace:
    """Iterate recharging and machine reset, recording the cooling trace.

    Per round the recharger acts on (current system marginal) x (fresh
    machine Gibbs state); the machine is then discarded.  Heat is the mean
    energy deposited in the machine, Q = sum_k omega_k (n'_k - n_k + |alpha'_k|^2),
    and the round's entropy production is beta*Q minus the entropy decrease
    of the system.  It equals D[rho'_M || tau_M] + I_{S:M}, an identity the
    tests check from the full moment matrix.

    Since the machine enters every round fresh, a round acts on the system
    alone as a one-mode Gaussian channel.  Its state is three numbers: alpha,
    nu and the excess n = mu - 1/2 (so a cold mode's occupation is not
    rounded against 1/2).  With (C, S, d) the recharger's blocks, system
    index 0, machine occupations n_c and w_ac = |C_ac|^2 + |S_ac|^2, row a of
    the output is

        alpha'_a = C*_a0 alpha + S_a0 alpha* + d_a,
        n'_a = w_a0 n + Re(2 C*_a0 S*_a0 nu) + sum_{c>0} w_ac n_c + sum_c |S_ac|^2,
        nu'_0 = C*_00 S_00 (2n + 1) + C*_00^2 nu + S_00^2 nu* + sum_{c>0} C*_0c S_0c (2n_c + 1),

    in excess form by C C^dag - (S S^dag)* = I.  So the heat is linear in n
    and nu plus a Hermitian form in (alpha, alpha*, 1): in the system's raw
    moments, Q = q_n (n + |alpha|^2) + Re(q_nu (nu + alpha^2) + q_alpha alpha)
    + q_1.  The coefficients are taken once per run; a round is then a few
    operations on Python scalars, and every recharger takes this one path.
    Moments that overflow are refused by a DomainError, as is a cumulative
    heat or Sigma that is not finite (naming the round); nth can refuse the
    round too (``gaussian.thermal_excitation``).
    """
    j = spec.n_machine + 1
    if recharger.modes != j:
        raise DimensionMismatchError(
            f"recharger acts on {recharger.modes} modes, machine needs {j}"
        )
    if rounds < 1:
        raise DomainError("rounds must be >= 1")

    c, s, d = recharger.C, recharger.S, recharger.d_alpha
    n_machine, omegas = spec.machine_nbars, np.array(spec.omegas)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(c) ** 2 + np.abs(s) ** 2
        # n'_a at n = nu = 0, less the machine's own n_a.
        drift = w[:, 1:] @ n_machine + np.sum(np.abs(s) ** 2, axis=1) - np.r_[0.0, n_machine]
        # The heat's coefficients (see above).
        q_n = float(omegas @ w[1:, 0])
        q_nu = complex(omegas @ (2.0 * np.conj(c[1:, 0] * s[1:, 0])))
        q_alpha = complex(omegas @ (2.0 * np.conj(c[1:, 0] * d[1:] + s[1:, 0] * d[1:].conj())))
        q_1 = float(omegas @ (drift[1:] + np.abs(d[1:]) ** 2))
    c00, s00, d0 = complex(c[0, 0]).conjugate(), complex(s[0, 0]), complex(d[0])
    w00, b0 = float(w[0, 0]), float(drift[0])
    nu0 = complex((c[0].conj() * s[0]) @ np.r_[1.0, 2.0 * n_machine + 1.0])

    a, n, nu = 0j, spec.nbar_system, 0j
    s_sys_in = G.vn_entropy_single_mode(n)
    nths, betas, heats, sigmas, sigma_rounds = [], [], [], [], []
    heat_cum = sigma_cum = 0.0
    for l in range(1, rounds + 1):
        q_round = (q_n * (n + (a.real * a.real + a.imag * a.imag))
                   + (q_nu * (nu + a * a) + q_alpha * a).real + q_1)
        a, n, nu = (
            c00 * a + s00 * a.conjugate() + d0,
            w00 * n + 2.0 * (c00 * s00.conjugate() * nu).real + b0,
            2.0 * c00 * s00 * n + c00 * c00 * nu + s00 * s00 * nu.conjugate() + nu0,
        )
        if not (math.isfinite(n) and cmath.isfinite(nu) and cmath.isfinite(a)):
            raise DomainError("moments are not finite (overflow)")
        nth = G._thermal_excitation_one(n, nu)
        s_sys_out = G.vn_entropy_single_mode(nth)
        sigma_round = spec.beta * q_round - (s_sys_in - s_sys_out)
        s_sys_in = s_sys_out
        heat_cum += q_round
        sigma_cum += sigma_round
        if not (math.isfinite(heat_cum) and math.isfinite(sigma_cum)):
            raise DomainError(f"heat or entropy production is not finite in round {l}")
        nths.append(nth)
        betas.append(G.effective_beta(nth, spec.omega0))
        heats.append(heat_cum)
        sigmas.append(sigma_cum)
        sigma_rounds.append(sigma_round)
    return CoolingTrace(nths, betas, heats, sigmas, sigma_rounds)


def random_spec(
    rng: np.random.Generator,
    max_machine_modes: int = 5,
    lam_range: tuple[float, float] = (1.1, 50.0),
    max_beta_omega_top: float = 12.0,
) -> MachineSpec:
    """Random machine spec for randomized suites.

    lam is drawn log-uniformly in ``lam_range`` and beta*omega0 is capped so
    beta*omega_N stays below ``max_beta_omega_top``: occupations then remain
    large enough for relative comparisons at 1e-10 to be meaningful in double
    precision.  Intermediate modes may fall below omega0 to exercise the
    inert-mode paths.
    """
    n = int(rng.integers(1, max_machine_modes + 1))
    lam = math.exp(rng.uniform(math.log(lam_range[0]), math.log(lam_range[1])))
    beta = math.exp(rng.uniform(math.log(0.2), math.log(2.0)))
    g_top = rng.uniform(0.05, max_beta_omega_top)
    omega0 = g_top / (beta * lam)
    omega_top = lam * omega0
    inner = np.sort(rng.uniform(0.5 * omega0, omega_top, size=n - 1))
    omegas = tuple(inner) + (omega_top,)
    return MachineSpec(beta=beta, omega0=omega0, omegas=omegas)
