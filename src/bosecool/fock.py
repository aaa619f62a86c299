"""Exact collision dynamics of the excitation-exchange interaction.

The system mode (dimension d_S) couples to a single machine mode (dimension
d_M) through H = omega0 a^dag a + omega1 b^dag b + chi (a b^dag^p + a^dag b^p).
Everything here is exact on the truncated joint Fock space and serves as the
ground truth against which the closed-form collision predictions are checked.

The interaction moves excitations in (1, p) bundles, so K = p n_S + n_M is
conserved exactly, truncation included.  Each K sector is a real symmetric
tridiagonal block, omega1 K plus a block whose diagonal is
(omega0 - p omega1) n_S.  The Hamiltonian holds only these tridiagonal runs;
a sweep over the sectors eigendecomposes each shifted block when it reaches
it, by a direct call of LAPACK's ``dstevd`` (the routine that scipy's
``eigh_tridiagonal`` runs, so the bits are the same), and drops it when done.
``dstevd`` is taken from scipy's compiled LAPACK module, which ``_lapack``
loads without the ``scipy.linalg`` package.
The sector unitaries are taken in real half-angle form, cos and sin of the
shifted block, so that small transition amplitudes are not differences of
O(1) terms.  A cutoff whose joint dimension exceeds ``JOINT_DIM_MAX`` is
refused before any sector exists.

With K conserved and a thermal machine, a collision maps each coherence order
delta = n - n' of the system state to itself, through a transfer matrix
T_delta built from the sector unitaries; T_0 moves the populations.  Orders
that are exactly zero in the input are not built, so a Gibbs input costs one
T_0 and one matrix-vector product per round.  ``step_populations`` runs those
rounds for a stack of cells, such as the interaction orders of one cutoff,
with one stacked product a round; each cell gets the bits of its own loop.
The channel has a duration axis: one sweep over the sectors builds the
matrices of many durations at once, with stacked unitaries and the same
elementwise steps as for one, so every slice is bit for bit the
one-duration channel.  ``collision_populations`` keeps one sweep's
decompositions and builds ``CHUNK`` durations from them at a time, which
bounds its memory whatever the number of durations, and each sector is
decomposed once.  The dense joint-space unitary is only the tests'
reference.  Inputs are checked only by the public ``FockDensity``
constructors; collision results are not re-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._lapack import flapack
from .collisions import fano_factor
from .errors import (
    ConvergenceError,
    CutoffTooSmallError,
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
)

DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = 1e-9
UNITARITY_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-10
STATIONARY_TOL = 1e-12  # detailed-balance and fixed-point residuals of the stationary state

# Durations per stacked sector sweep.  It bounds the memory of a sweep over
# many durations; the results do not depend on it.
CHUNK = 16

# Largest joint dimension d_S * d_M a cutoff may have.  A collision sweep
# keeps every sector's eigenvectors, about 250 MB for a square cutoff at this
# size at p = 1; any other sweep holds a few sectors at a time.  The hottest
# cutoff the benchmark runs is 152 x 97 (14744).
JOINT_DIM_MAX = 1 << 17


def _check_finite_nonnegative(name: str, x: float) -> None:
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, got {x}")


def gibbs_tail_mass(nbar: float, dim: int) -> float:
    """Probability mass of a Gibbs state at or above the Fock level ``dim``."""
    _check_finite_nonnegative("nbar", nbar)
    q = nbar / (nbar + 1.0)
    return q**dim


def minimum_cutoff(nbar: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest dimension whose Gibbs tail mass stays below ``tail_tol``.

    Raises DomainError when that dimension overflows a float (nbar near 1e306 and up).
    """
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    _check_finite_nonnegative("nbar", nbar)
    if nbar == 0.0:
        return 1
    d = math.log(1.0 / tail_tol) / math.log1p(1.0 / nbar)
    if d == math.inf:
        raise DomainError(f"the Gibbs cutoff for nbar={nbar} overflows a float")
    return max(math.ceil(d), 1)


def gibbs_probabilities(
    nbar: float, dim: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[np.ndarray, float]:
    """Truncated, renormalized Gibbs populations and the renormalization deficit.

    Raises CutoffTooSmallError when the discarded tail exceeds ``tail_tol``;
    the deficit is never silently absorbed.
    """
    deficit = gibbs_tail_mass(nbar, dim)
    if deficit > tail_tol:
        raise CutoffTooSmallError(
            f"Gibbs tail mass {deficit:.3e} at dimension {dim} exceeds {tail_tol:.1e}"
            f" for nbar={nbar}",
            deficit=deficit,
        )
    n = np.arange(dim)
    if nbar == 0.0:
        probs = np.zeros(dim)
        probs[0] = 1.0
        return probs, 0.0
    logq = math.log(nbar) - math.log1p(nbar)
    probs = np.exp(n * logq)
    probs /= probs.sum()
    return probs, deficit


@dataclass(frozen=True)
class FockCutoff:
    """Truncation dimensions for the system and machine modes, at most JOINT_DIM_MAX jointly."""

    d_s: int
    d_m: int

    def __post_init__(self):
        if self.d_s < 2 or self.d_m < 2:
            raise DomainError("cutoff dimensions must be at least 2")
        if self.d_s * self.d_m > JOINT_DIM_MAX:
            raise DomainError(
                f"cutoff {self.d_s}x{self.d_m} exceeds the joint dimension limit"
                f" {JOINT_DIM_MAX} of the exact Fock oracle"
            )

    @classmethod
    def for_occupations(
        cls,
        nbar_s: float,
        nbar_m: float,
        p: int = 1,
        tail_tol: float = DEFAULT_TAIL_TOL,
        minimum: int = 16,
    ) -> "FockCutoff":
        """Cutoffs satisfying the tail rule for both inputs (and >= p + 2)."""
        floor = max(minimum, p + 2)
        return cls(
            d_s=max(floor, minimum_cutoff(nbar_s, tail_tol)),
            d_m=max(floor, minimum_cutoff(nbar_m, tail_tol)),
        )


@dataclass(frozen=True)
class FockDensity:
    """Density matrix on a truncated Fock space; the public constructors validate it."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > DENSITY_HERMITICITY_TOL:
            raise InvalidStateError(f"density not Hermitian (deviation {herm:.3e})")
        rho = _density(rho, self).rho
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise InvalidStateError(f"trace {tr} deviates from 1")
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -DENSITY_EIG_TOL:
            raise InvalidStateError(f"negative eigenvalue {min_eig:.3e}")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.rho))

    @classmethod
    def from_populations(cls, probs: Sequence[float]) -> "FockDensity":
        return cls(rho=np.diag(np.asarray(probs, dtype=complex)))

    @classmethod
    def gibbs(
        cls, nbar: float, dim: int, tail_tol: float = DEFAULT_TAIL_TOL
    ) -> "FockDensity":
        probs, _ = gibbs_probabilities(nbar, dim, tail_tol)
        return cls.from_populations(probs)


def _density(rho: np.ndarray, state: FockDensity | None = None) -> FockDensity:
    """Store the read-only Hermitian part of ``rho`` into ``state``, a fresh object by default."""
    state = object.__new__(FockDensity) if state is None else state
    rho = 0.5 * (rho + rho.conj().T)
    rho.setflags(write=False)
    object.__setattr__(state, "rho", rho)
    return state


@dataclass(frozen=True)
class _Sector:
    """One conserved-K block, members (n, m = K - p n) ordered by n: H_K = omega1 K + V E V^T."""

    ns: np.ndarray  # consecutive system levels
    ms: np.ndarray
    flat: np.ndarray  # joint indices n * d_m + m
    span: slice  # ns as a slice: this sector's block of a system-space matrix is [span, span]
    evals: np.ndarray  # E, of H_K - omega1 K, whose diagonal is (omega0 - p omega1) n
    evecs: np.ndarray  # V, real orthogonal

    def rotation(self, t) -> np.ndarray:
        """cos(H' t) and sin(H' t) stacked, for H' = H_K - omega1 K; a column of
        durations, shape (c, 1), stacks c of each.

        exp(-i H_K t) = exp(-i omega1 K t) (cos(H' t) - i sin(H' t)).  In
        half-angle form cos(H' t) = I - 2 V diag(sin^2(theta / 2)) V^T and
        sin(H' t) = V diag(sin theta) V^T, theta = evals t, so an off-diagonal
        entry is a sum of small terms, not a difference of O(1) ones.
        """
        theta = self.evals * t
        half = np.sin(0.5 * theta)
        coef = np.stack([-2.0 * half * half, np.sin(theta)])
        parts = (self.evecs * coef[..., None, :]) @ self.evecs.T
        parts[0] += np.eye(self.ns.shape[0])
        return parts


@dataclass(frozen=True, eq=False)
class ExchangeHamiltonian:
    """p-excitation exchange Hamiltonian on a truncated two-mode Fock space.

    It holds the tridiagonal run of each conserved-K sector; a sweep
    (``_sweep``) decomposes each sector when it reaches it.
    """

    p: int
    chi: float
    omega0: float
    omega1: float
    cutoff: FockCutoff
    _runs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 1 or int(self.p) != self.p:
            raise DomainError("p must be a positive integer")
        if self.cutoff.d_s < self.p + 2 or self.cutoff.d_m < self.p + 2:
            raise DomainError(
                f"cutoff ({self.cutoff.d_s}, {self.cutoff.d_m}) too small for p={self.p}"
            )
        object.__setattr__(self, "_runs", self._build_runs())

    def _build_runs(self) -> tuple:
        """(n, m, joint index), shifted diagonal, couplings and sector ends, in K order."""
        p, d_s, d_m = self.p, self.cutoff.d_s, self.cutoff.d_m
        # Every joint level (n, m), ordered by K = p n + m and then by n, so that each
        # sector is one run; d_m >= p + 2 gives every K a member, so run index == K.
        n, m = np.divmod(np.arange(d_s * d_m), d_m)
        flat = np.lexsort((n, p * n + m))  # joint indices n * d_m + m
        n, m = n[flat], m[flat]
        ks = p * n + m
        # <n, m | H_I | n+1, m-p> = chi sqrt(n+1) sqrt((m-p+1)...(m)), for each two
        # neighbours of one sector.  Sector K's first pair is its first member less K.
        pairs = np.flatnonzero(ks[1:] == ks[:-1])
        m_hi = m[pairs]  # machine occupation of the lower-n member
        prod = np.ones(pairs.shape[0])
        for i in range(p):
            prod *= m_hi - i
        # A non-finite omega or chi is refused here, once, not warned about or
        # passed to a sector solve.
        with np.errstate(over="ignore", invalid="ignore"):
            energy = self.omega0 * n + self.omega1 * m
            diag = (self.omega0 - p * self.omega1) * n  # energy less omega1 K
            off = self.chi * np.sqrt(n[pairs + 1] * prod)
        if not all(np.isfinite(x).all() for x in (energy, diag, off)):
            raise DomainError("Hamiltonian array must not contain infs or NaNs")
        ends = [*np.flatnonzero(np.diff(ks)) + 1, ks.shape[0]]
        return (n, m, flat), diag, off, ends

    def _sweep(self):
        """Each sector in K order, decomposed by one ``dstevd`` call when the sweep reaches it."""
        # Loaded on use, so that commands that never call LAPACK start without it.
        dstevd = flapack().dstevd

        (n, m, flat), diag, off, ends = self._runs
        for k, (a, b) in enumerate(zip([0, *ends], ends)):
            if b - a > 1:
                evals, evecs, info = dstevd(diag[a:b], off[a - k : b - 1 - k])
                if info:
                    raise ConvergenceError(f"dstevd failed on sector K={k} (info {info})")
            else:
                evals, evecs = diag[a:b], np.ones((1, 1))
            yield _Sector(n[a:b], m[a:b], flat[a:b], slice(n[a], n[b - 1] + 1), evals, evecs)

    @property
    def dim(self) -> int:
        return self.cutoff.d_s * self.cutoff.d_m

    @property
    def matrix(self) -> np.ndarray:
        """Dense joint-space Hamiltonian (system index major), a test reference."""
        (n, m, flat), _, off, _ = self._runs
        h = np.zeros((self.dim, self.dim))
        h[flat, flat] = self.omega0 * n + self.omega1 * m
        pairs = np.flatnonzero(np.diff(self.p * n + m) == 0)
        h[flat[pairs], flat[pairs + 1]] = h[flat[pairs + 1], flat[pairs]] = off
        return h


def build_hamiltonian(
    p: int, chi: float, omega0: float, omega1: float, cutoff: FockCutoff
) -> ExchangeHamiltonian:
    return ExchangeHamiltonian(p=p, chi=chi, omega0=omega0, omega1=omega1, cutoff=cutoff)


def evolve_unitary(h: ExchangeHamiltonian, t: float) -> np.ndarray:
    """Dense joint-space unitary exp(-i H t): the tests' reference for the collision channel.

    Each sector is checked for unitarity; sectors partition the basis, so the
    per-sector residuals bound the global one.
    """
    _check_finite_nonnegative("t", t)
    u = np.zeros((h.dim, h.dim), dtype=complex)
    for k, sec in enumerate(h._sweep()):
        cos_h, sin_h = sec.rotation(t)
        uk = np.exp(-1j * h.omega1 * k * t) * (cos_h - 1j * sin_h)
        res = np.max(np.abs(uk.conj().T @ uk - np.eye(uk.shape[0])))
        if res > UNITARITY_TOL:
            raise ConvergenceError(f"sector unitarity residual {res:.3e}", residual=float(res))
        u[np.ix_(sec.flat, sec.flat)] = uk
    return u


def _durations(ts) -> np.ndarray:
    """The durations ``ts`` as a 1-D float array; DomainError unless each is in [0, inf)."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise DimensionMismatchError(f"durations must be a 1-D sequence, got shape {ts.shape}")
    bad = ~((ts >= 0.0) & (ts < math.inf))
    if bad.any():
        raise DomainError(f"t must be finite and nonnegative, got {ts[bad][0]}")
    return ts


def _channel(
    h: ExchangeHamiltonian,
    sectors: Iterable[_Sector],
    q: np.ndarray,
    ts: np.ndarray,
    orders: Sequence[int],
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """T_0 and (delta, T_delta) for each delta in ``orders``, stacked over the durations ``ts``.

    ``sectors`` is one sweep of ``h``'s sectors, in K order, and ``q`` holds
    the machine's Gibbs populations.  rho'[a, a - delta] =
    sum_n T_delta[a, n] rho[n, n - delta], where T_delta[a, n] =
    sum_m q_m U_K[a, n] conj(U_{K - p delta}[a - delta, n - delta]) and K = p n + m
    (Ciccarello et al., Phys. Rep. 954, 1 (2022)).  T_delta is indexed from delta.
    With U_K = exp(-i omega1 K t) W_K, T_0's block is |W_K|^2 q_m, and the phases
    leave exp(-i omega1 p delta t) on T_delta.  One sweep builds every
    duration's matrices, elementwise as for a single duration, so each slice is
    the same whatever else ``ts`` holds.
    """
    p, d_s, c = h.p, h.cutoff.d_s, ts.shape[0]
    tmat = np.zeros((c, d_s, d_s))
    coherent = [(d, np.zeros((c,) + (d_s - d,) * 2, dtype=complex)) for d in orders]
    reach = p * max(orders, default=0)
    kept = {}  # K: first level and W_K, for as long as a later sector K + p delta pairs with it
    col = ts[:, None]
    for k, sec in enumerate(sectors):
        cos_h, sin_h = sec.rotation(col)
        tmat[:, sec.span, sec.span] += (cos_h**2 + sin_h**2) * q[sec.ms]
        if not coherent:
            continue
        u = cos_h - 1j * sin_h
        for d, t_d in coherent:
            lo = sec.span.start
            i = max(d - lo, 0)  # members n >= d pair with n - d in sector K - p delta
            w, r = sec.ns.shape[0] - i, lo + i - d
            if w > 0:
                low, v = kept[k - p * d]
                j = r - low
                v = v[:, j : j + w, j : j + w]
                t_d[:, r : r + w, r : r + w] += u[:, i:, i:] * v.conj() * q[sec.ms[i:]]
        kept[k] = sec.span.start, u
        kept.pop(k - reach, None)
    for d, t_d in coherent:
        t_d *= np.exp(-1j * h.omega1 * p * d * ts)[:, None, None]
    return tmat, coherent


def transfer_matrix(
    h: ExchangeHamiltonian,
    nbar_m: float,
    t: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[np.ndarray, float]:
    """Population transfer matrix of one collision with a fresh thermal machine.

    T[n_out, n_in] is the probability that a system level n_in ends at n_out
    after the joint unitary and the machine is traced out; columns sum to 1.
    It is the channel's T_0, exact for the populations of any input.  Also
    returns the machine truncation deficit.
    """
    ts = _durations([t])
    q, deficit = gibbs_probabilities(nbar_m, h.cutoff.d_m, tail_tol)
    return _channel(h, h._sweep(), q, ts, ())[0][0], deficit


def _check_system(rho_s: FockDensity, h: ExchangeHamiltonian) -> None:
    if rho_s.dim != h.cutoff.d_s:
        raise DimensionMismatchError(
            f"system dimension {rho_s.dim} does not match cutoff {h.cutoff.d_s}"
        )


def collision_populations(
    rho_s: FockDensity,
    nbar_m: float,
    h: ExchangeHamiltonian,
    ts: Sequence[float],
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[np.ndarray, float]:
    """System populations after one collision, for each duration in ``ts``.

    Row j is bit for bit ``single_collision(rho_s, nbar_m, h, ts[j]).populations``;
    only T_0 acts on populations, so the coherences of ``rho_s`` play no part.
    The channel is built for ``CHUNK`` durations at a time from one sweep of
    the sectors, kept for every chunk, so memory does not grow with
    ``len(ts)`` beyond the (len(ts), d_s) result.  Also
    returns the machine truncation deficit.  Raises DomainError unless every
    duration is in [0, inf), before any sector work; an empty ``ts`` gives a
    (0, d_s) result.
    """
    ts = _durations(ts)
    _check_system(rho_s, h)
    q, deficit = gibbs_probabilities(nbar_m, h.cutoff.d_m, tail_tol)
    p0 = rho_s.populations.copy()
    pops = np.empty((ts.shape[0], h.cutoff.d_s))
    sectors = list(h._sweep())
    for i in range(0, ts.shape[0], CHUNK):
        pops[i : i + CHUNK] = _channel(h, sectors, q, ts[i : i + CHUNK], ())[0] @ p0
    return pops, deficit


def single_collision(
    rho_s: FockDensity,
    nbar_m: float,
    h: ExchangeHamiltonian,
    t: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> FockDensity:
    """One recharging step on rho_s x tau_M, machine traced out: round 1 of the iteration."""
    return iterate_collisions(rho_s, nbar_m, h, t, 1, tail_tol).final


def mean_excitation(rho: FockDensity) -> float:
    n = np.arange(rho.dim)
    return float(np.real(np.sum(rho.populations * n)))


def second_moment(rho: FockDensity) -> float:
    n = np.arange(rho.dim)
    return float(np.real(np.sum(rho.populations * n * n)))


@dataclass(frozen=True)
class CollisionTrace:
    """Moments of an iterated collision run at its recorded rounds."""

    rounds: np.ndarray
    mean_n: np.ndarray
    mean_n2: np.ndarray
    fano_q: np.ndarray
    final: FockDensity
    transfer: np.ndarray  # the population transfer matrix T_0 applied each round


def step_populations(tmats: np.ndarray, states, rounds: int, record_every: int = 1) -> tuple:
    """Step a stack of population vectors through their transfer matrices, one product a round.

    ``tmats`` is (P, d, d) and ``states`` is (P, d): cell i steps as
    ``state = tmats[i] @ state``, ``rounds`` times.  Returns the list of
    recorded rounds (1, 1 + record_every, ... and the last), the (P, R) first and
    second moments at them and the (P, d) final populations.  One stacked
    product steps every cell each round and each moment is a 1-D product of
    one cell, so every cell gets bit for bit the values of its own loop.
    Raises DomainError unless rounds >= 1 and record_every >= 1.
    """
    for name, count in (("rounds", rounds), ("record_every", record_every)):
        if count < 1:
            raise DomainError(f"{name} must be >= 1")
    recorded = sorted({*range(1, rounds + 1, record_every), rounds})
    n = np.arange(tmats.shape[-1])
    n2 = n * n
    moments = np.empty((2, len(states), len(recorded)))
    state = np.array(states, dtype=float)[..., None]
    spare = np.empty_like(state)  # the two buffers take turns as input and output
    for j, steps in enumerate(np.diff(recorded, prepend=0)):
        for _ in range(steps):
            np.matmul(tmats, state, out=spare)
            state, spare = spare, state
        for i, v in enumerate(state[..., 0]):
            moments[:, i, j] = v @ n, v @ n2
    return recorded, moments[0], moments[1], state[..., 0]


def iterate_collisions(
    rho_s0: FockDensity,
    nbar_m: float,
    h: ExchangeHamiltonian,
    t: float,
    rounds: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    record_every: int = 1,
) -> CollisionTrace:
    """Repeat single collisions with a freshly thermalized machine.

    Moments are recorded at rounds 1, 1 + record_every, ... and at the last
    round.  The populations evolve through T_0 in ``step_populations``, as a
    stack of one, and the trace carries T_0 as ``transfer``; each coherence
    order that is nonzero in ``rho_s0`` evolves through its own T_delta, and
    the orders that are exactly zero are not built.  Raises DomainError
    unless 0 <= t < inf, rounds >= 1 and record_every >= 1.  Results are not
    re-checked.
    """
    _check_system(rho_s0, h)
    lags = np.unique(np.subtract(*np.nonzero(rho_s0.rho)))  # n - n' of the nonzero entries
    orders = lags[lags > 0].tolist()
    ts = _durations([t])
    q, _ = gibbs_probabilities(nbar_m, h.cutoff.d_m, tail_tol)
    tmats, coherent = _channel(h, h._sweep(), q, ts, orders)
    recorded, mean, mean2, state = step_populations(
        tmats, rho_s0.populations[None], rounds, record_every
    )
    final = np.diag(state[0].astype(complex))
    for d, tm in coherent:
        v = np.diagonal(rho_s0.rho, -d)
        for _ in range(rounds):
            v = tm[0] @ v
        np.fill_diagonal(final[d:], v)
        np.fill_diagonal(final[:, d:], v.conj())

    fano = np.array([fano_factor(m1, m2) for m1, m2 in zip(mean[0], mean2[0])])
    return CollisionTrace(
        rounds=np.array(recorded),
        mean_n=mean[0],
        mean_n2=mean2[0],
        fano_q=fano,
        final=_density(final),
        transfer=tmats[0],
    )


def stationary_populations(tmat: np.ndarray) -> np.ndarray:
    """Fixed point of a collision channel on Fock-diagonal states.

    ``tmat`` is the channel's population transfer matrix, e.g. the
    ``transfer`` of the iterated run it belongs to.  T_0 is in detailed
    balance with its fixed point pi, T[a, n] pi_n = T[n, a] pi_a: each sector
    unitary is symmetric, and the Gibbs weight of a sector's machine levels
    times pi is the same for every member.  So pi_{n+1} / pi_n =
    T[n+1, n] / T[n, n+1], a cumulative product, normalized.  An up rate
    that underflows to 0 leaves pi exactly 0 from there on.  Two levels with
    no transition between them (both rates 0) leave pi undetermined; their
    ratio 0/0 is NaN.  Raises ConvergenceError unless
    max|T[a, n] pi_n - T[n, a] pi_a| and max|T pi - pi| are both within
    ``STATIONARY_TOL`` (so also where pi is NaN).  pi is the exact asymptote
    of iterated cooling, independent of how many rounds a finite run
    performs.
    """
    up, down = np.diagonal(tmat, -1), np.diagonal(tmat, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = np.cumprod(np.concatenate(([1.0], up / down)))
        pi /= pi.sum()
    flow = tmat * pi
    residual = max(np.max(np.abs(flow - flow.T)), np.max(np.abs(tmat @ pi - pi)))
    if not residual <= STATIONARY_TOL:
        msg = f"stationary state not certified: residual {residual:.3e} above {STATIONARY_TOL}"
        raise ConvergenceError(msg, best=pi, residual=float(residual))
    return pi
