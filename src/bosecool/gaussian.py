"""Gaussian states and unitaries in the annihilation/creation moment representation.

A J-mode Gaussian state is stored through its first moments ``alpha_j = <a_j>``
and the second-moment blocks

    mu_jk = (1/2)<{a_j, a_k^dag}> - <a_j><a_k^dag>   (Hermitian),
    nu_jk = (1/2)<{a_j, a_k}>     - <a_j><a_k>       (symmetric),

stored as r = (alpha, alpha*) and M = [[mu*, nu], [nu*, mu]].  A Gaussian
unitary is the affine map r -> G r + d, M -> G M G^dag, stored as (G, d) with

    G = [[C*, S], [S*, C]],   C C^dag - (S S^dag)* = I,   (S C^dag)^T = S C^dag,

and d = (d_alpha, d_alpha*).  ``alpha``, ``mu``, ``nu``, ``C``, ``S`` and
``d_alpha`` are read-only views into those arrays.

The invariants are checked once, by the public constructors
``GaussianState(alpha=, mu=, nu=)`` and ``GaussianUnitary(C=, S=, d_alpha=)``.
The operations here (``apply_unitary``, ``compose``, ``reduce``, ``tensor``,
``product_thermal``, ``identity_unitary``) preserve them and assemble their
results unchecked, apart from a finiteness test.

Units are dimensionless (hbar = k_B = 1).  All objects are immutable values;
every operation returns a fresh object.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
    InvalidUnitaryError,
)

# Constructor-enforced invariants are checked at 1e-12 (exact symmetries) and
# 1e-10 (spectral conditions); derived-quantity comparisons elsewhere use 1e-8.
HERMITICITY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-10
UNCERTAINTY_TOL = 1e-10
DET_TOL = 1e-8

# Largest gap g = beta*omega: above it e^g overflows and nbar = 1/(e^g - 1) is 0.
GAP_MAX = math.log(sys.float_info.max)

DEFAULT_MAX_SQUEEZE = 1.5


def _as_complex_matrix(a, name: str, dim: int) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    if arr.shape != (dim, dim):
        raise DimensionMismatchError(f"{name} must be {dim}x{dim}, got {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GibbsMode:
    """A harmonic mode thermalized at inverse temperature ``beta``."""

    omega: float
    beta: float

    def __post_init__(self):
        if not (self.omega > 0 and self.beta > 0):
            raise DomainError(
                f"omega and beta must be positive, got omega={self.omega}, beta={self.beta}"
            )

    @property
    def nbar(self) -> float:
        """Mean thermal occupation 1 / (e^{beta omega} - 1)."""
        return 1.0 / math.expm1(self.beta * self.omega)


@dataclass(frozen=True, init=False)
class GaussianState:
    """Immutable J-mode Gaussian state stored as its moments (r, M).

    ``GaussianState(alpha=, mu=, nu=)`` validates its input; ``alpha``, ``mu``
    and ``nu`` are read-only views into ``r`` and ``M``.
    """

    r: np.ndarray
    M: np.ndarray

    def __init__(self, alpha, mu, nu):
        alpha = np.atleast_1d(np.array(alpha, dtype=complex))
        j = alpha.shape[0]
        mu = _as_complex_matrix(mu, "mu", j)
        nu = _as_complex_matrix(nu, "nu", j)
        if not all(np.isfinite(x).all() for x in (alpha, mu, nu)):
            raise InvalidStateError("moments must be finite")

        # Tolerances are absolute for O(1) moments and scale with the matrix
        # norm beyond that; highly squeezed states carry entries far above 1
        # where an absolute 1e-12 would be below representable precision.
        scale = max(1.0, float(np.max(np.abs(mu))), float(np.max(np.abs(nu))))
        herm = np.max(np.abs(mu - mu.conj().T)) if j else 0.0
        if herm > HERMITICITY_TOL * scale:
            raise InvalidStateError(f"mu is not Hermitian (max deviation {herm:.3e})")
        sym = np.max(np.abs(nu - nu.T)) if j else 0.0
        if sym > HERMITICITY_TOL * scale:
            raise InvalidStateError(f"nu is not symmetric (max deviation {sym:.3e})")

        _state(alpha, mu, nu, self)

        z = np.diag(np.concatenate([np.full(j, 0.5), np.full(j, -0.5)]))
        min_eig = float(np.linalg.eigvalsh(self.M + z)[0])
        if min_eig < -UNCERTAINTY_TOL * scale:
            raise InvalidStateError(
                f"uncertainty relation violated: min eig(M + Z) = {min_eig:.3e}"
            )
        if np.min(self.mean_excitations) < -UNCERTAINTY_TOL * scale:
            raise InvalidStateError("negative mean excitation")

    @property
    def modes(self) -> int:
        return self.r.shape[0] // 2

    @property
    def alpha(self) -> np.ndarray:
        """First moments <a_j>: the first half of r."""
        return self.r[: self.modes]

    @property
    def mu(self) -> np.ndarray:
        """Hermitian block of M (lower right)."""
        j = self.modes
        return self.M[j:, j:]

    @property
    def nu(self) -> np.ndarray:
        """Symmetric block of M (upper right)."""
        j = self.modes
        return self.M[:j, j:]

    @property
    def mean_excitations(self) -> np.ndarray:
        """Per-mode mean excitation |alpha_j|^2 + mu_jj - 1/2."""
        return np.abs(self.alpha) ** 2 + np.real(np.diag(self.mu)) - 0.5


@dataclass(frozen=True, init=False)
class GaussianUnitary:
    """Immutable J-mode Gaussian unitary stored as its affine map (G, d).

    ``GaussianUnitary(C=, S=, d_alpha=)`` validates its input; ``C``, ``S``
    and ``d_alpha`` (the annihilation half of d = (d_alpha, d_alpha*)) are
    read-only views into ``G`` and ``d``.
    """

    G: np.ndarray
    d: np.ndarray

    def __init__(self, C, S, d_alpha=None):
        c = np.array(C, dtype=complex)
        j = c.shape[0]
        c = _as_complex_matrix(c, "C", j)
        s = _as_complex_matrix(S, "S", j)
        d = (
            np.zeros(j, dtype=complex)
            if d_alpha is None
            else np.atleast_1d(np.array(d_alpha, dtype=complex))
        )
        if d.shape != (j,):
            raise DimensionMismatchError(f"d_alpha must have length {j}, got {d.shape}")
        if not all(np.isfinite(x).all() for x in (c, s, d)):
            raise InvalidUnitaryError("C, S and d_alpha must be finite")

        eye = np.eye(j)
        res_con = np.max(np.abs(c @ c.conj().T - (s @ s.conj().T).conj() - eye))
        sc = s @ c.conj().T
        res_sym = np.max(np.abs(sc.T - sc))
        if res_con > SYMPLECTIC_TOL or res_sym > SYMPLECTIC_TOL:
            raise InvalidUnitaryError(
                f"symplectic constraints violated (residuals {res_con:.3e}, {res_sym:.3e})"
            )

        _unitary(c, s, d, self)

        det = abs(np.linalg.det(self.G))
        if abs(det - 1.0) > DET_TOL:
            raise InvalidUnitaryError(f"|det G| = {det} deviates from 1")

    @property
    def modes(self) -> int:
        return self.d.shape[0] // 2

    @property
    def C(self) -> np.ndarray:
        j = self.modes
        return self.G[j:, j:]

    @property
    def S(self) -> np.ndarray:
        j = self.modes
        return self.G[:j, j:]

    @property
    def d_alpha(self) -> np.ndarray:
        return self.d[: self.modes]


# Internal results are valid by construction, so they are assembled without
# the constructors' checks.  Only finiteness is tested: overflow is the one
# way a valid input can produce an invalid result.


def _moment_pair(top_left, top_right, first_half) -> tuple[np.ndarray, np.ndarray]:
    """Frozen 2J vector (v, v*) and 2J x 2J matrix [[A*, B], [B*, A]]."""
    j = first_half.shape[0]
    m = np.empty((2 * j, 2 * j), dtype=complex)
    m[:j, :j] = top_left.conj()
    m[:j, j:] = top_right
    m[j:, :j] = top_right.conj()
    m[j:, j:] = top_left
    v = np.concatenate([first_half, first_half.conj()])
    if not (np.isfinite(m).all() and np.isfinite(v).all()):
        raise DomainError("moments are not finite (overflow)")
    return _freeze(v), _freeze(m)


def _state(alpha, mu, nu, state: GaussianState | None = None) -> GaussianState:
    """Store (r, M) from the blocks into ``state``, a fresh object by default."""
    state = object.__new__(GaussianState) if state is None else state
    # Remove any sub-tolerance asymmetry so it cannot accumulate.  Overflow
    # here is reported by _moment_pair's finiteness test, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        r, m = _moment_pair(0.5 * (mu + mu.conj().T), 0.5 * (nu + nu.T), alpha)
    object.__setattr__(state, "r", r)
    object.__setattr__(state, "M", m)
    return state


def _unitary(c, s, d_alpha, u: GaussianUnitary | None = None) -> GaussianUnitary:
    """Store (G, d) from the blocks into ``u``, a fresh object by default."""
    u = object.__new__(GaussianUnitary) if u is None else u
    d, g = _moment_pair(c, s, d_alpha)
    object.__setattr__(u, "G", g)
    object.__setattr__(u, "d", d)
    return u


# ---------------------------------------------------------------------------
# State constructors


def gibbs_state(modes: Sequence[GibbsMode]) -> GaussianState:
    """Product Gibbs state of the given modes: r = 0, nu = 0, mu = diag(nbar + 1/2)."""
    modes = list(modes)
    if not modes:
        raise DomainError("at least one mode required")
    nbars = np.array([m.nbar for m in modes])
    return product_thermal(nbars)


def product_thermal(nbars: Iterable[float]) -> GaussianState:
    """Product of single-mode thermal states with the given occupations."""
    nbars = np.atleast_1d(np.asarray(nbars, dtype=float))
    if np.any(nbars < 0):
        raise DomainError("occupations must be nonnegative")
    j = nbars.shape[0]
    return _state(
        np.zeros(j, dtype=complex),
        np.diag(nbars + 0.5).astype(complex),
        np.zeros((j, j), dtype=complex),
    )


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two Gaussian states (block direct sum of moments)."""
    ja, jb = a.modes, b.modes
    alpha = np.concatenate([a.alpha, b.alpha])
    mu = np.zeros((ja + jb, ja + jb), dtype=complex)
    nu = np.zeros_like(mu)
    mu[:ja, :ja] = a.mu
    mu[ja:, ja:] = b.mu
    nu[:ja, :ja] = a.nu
    nu[ja:, ja:] = b.nu
    return _state(alpha, mu, nu)


# ---------------------------------------------------------------------------
# Unitary constructors


def identity_unitary(j: int) -> GaussianUnitary:
    return _unitary(
        np.eye(j, dtype=complex), np.zeros((j, j), dtype=complex), np.zeros(j, dtype=complex)
    )


def make_passive(c_unitary: np.ndarray) -> GaussianUnitary:
    """Passive (photon-number preserving) unitary from a unitary matrix C.

    With S = 0 the constructor's symplectic check is exactly C C^dag = I.
    """
    c = np.array(c_unitary, dtype=complex)
    j = c.shape[0]
    return GaussianUnitary(C=c, S=np.zeros((j, j), dtype=complex))


def make_squeezer(r_vec: Iterable[float]) -> GaussianUnitary:
    """Single-mode squeezers: C = diag(cosh r_j), S = diag(sinh r_j)."""
    r = np.atleast_1d(np.asarray(r_vec, dtype=float))
    return GaussianUnitary(C=np.diag(np.cosh(r)).astype(complex), S=np.diag(np.sinh(r)).astype(complex))


def make_displacement(alpha_vec: Iterable[complex]) -> GaussianUnitary:
    """Displacement by alpha on each mode (G = identity)."""
    alpha = np.atleast_1d(np.asarray(alpha_vec, dtype=complex))
    j = alpha.shape[0]
    return GaussianUnitary(
        C=np.eye(j, dtype=complex), S=np.zeros((j, j), dtype=complex), d_alpha=alpha
    )


def make_swap(i: int, j: int, n_modes: int) -> GaussianUnitary:
    """Full state swap of modes i and j (permutation passive)."""
    if not (0 <= i < n_modes and 0 <= j < n_modes):
        raise DomainError(f"swap indices ({i}, {j}) out of range for {n_modes} modes")
    c = np.eye(n_modes, dtype=complex)
    c[[i, j]] = c[[j, i]]
    return make_passive(c)


def make_beam_splitter(i: int, j: int, n_modes: int, theta: float) -> GaussianUnitary:
    """Beam splitter mixing modes i and j with angle theta (theta = pi/2 swaps)."""
    if i == j or not (0 <= i < n_modes and 0 <= j < n_modes):
        raise DomainError(f"invalid beam-splitter indices ({i}, {j})")
    c = np.eye(n_modes, dtype=complex)
    c[i, i] = c[j, j] = math.cos(theta)
    c[i, j] = math.sin(theta)
    c[j, i] = -math.sin(theta)
    return make_passive(c)


def haar_unitary(j: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed j x j unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def random_gaussian_unitary(
    j: int,
    rng_seed: int | np.random.Generator = 0,
    max_squeeze: float = DEFAULT_MAX_SQUEEZE,
) -> GaussianUnitary:
    """Random j-mode Gaussian unitary: passive . squeeze . passive.

    Passives are Haar random; squeeze magnitudes are uniform on
    [0, max_squeeze].  Deterministic in the seed.
    """
    if max_squeeze < 0:
        raise DomainError("max_squeeze must be nonnegative")
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    w1 = make_passive(haar_unitary(j, rng))
    sq = make_squeezer(rng.uniform(0.0, max_squeeze, size=j))
    w2 = make_passive(haar_unitary(j, rng))
    return compose(w2, compose(sq, w1))


# ---------------------------------------------------------------------------
# Operations


def apply_unitary(state: GaussianState, u: GaussianUnitary) -> GaussianState:
    """Evolve a state: r -> G r + d, M -> G M G^dag."""
    if state.modes != u.modes:
        raise DimensionMismatchError(
            f"state has {state.modes} modes, unitary acts on {u.modes}"
        )
    j = state.modes
    g = u.G
    r = g @ state.r + u.d
    m = g @ state.M @ g.conj().T
    return _state(r[:j], m[j:, j:], m[:j, j:])


def compose(u2: GaussianUnitary, u1: GaussianUnitary) -> GaussianUnitary:
    """Composition u2 after u1: G = G2 G1, d = G2 d1 + d2."""
    if u1.modes != u2.modes:
        raise DimensionMismatchError("mode counts differ")
    j = u1.modes
    g = u2.G @ u1.G
    d = u2.G @ u1.d + u2.d
    return _unitary(g[j:, j:], g[:j, j:], d[:j])


def reduce(state: GaussianState, keep: Iterable[int]) -> GaussianState:
    """Partial trace onto the modes in ``keep`` (order preserved)."""
    keep = list(keep)
    if not keep:
        raise DomainError("keep set must be nonempty")
    if any(k < 0 or k >= state.modes for k in keep):
        raise DomainError(f"keep indices {keep} out of range")
    idx = np.array(keep)
    return _state(state.alpha[idx], state.mu[np.ix_(idx, idx)], state.nu[np.ix_(idx, idx)])


def thermal_excitation(state: GaussianState) -> float:
    """Thermal excitation of a single-mode state: sqrt(mu^2 - |nu|^2) - 1/2.

    This is the minimum mean excitation reachable by single-mode Gaussian
    unitaries; it strips displacement and squeezing contributions and is
    invariant under them.
    """
    if state.modes != 1:
        raise DimensionMismatchError("thermal_excitation is defined for a single mode")
    mu = float(np.real(state.mu[0, 0]))
    nu_abs = abs(complex(state.nu[0, 0]))
    if nu_abs == 0.0:
        # Exact thermal/displaced-thermal case; avoids sqrt cancellation.
        return max(mu - 0.5, 0.0)
    det = mu * mu - nu_abs * nu_abs
    if det < 0.25 * (1.0 - UNCERTAINTY_TOL):
        raise InvalidStateError(
            f"mu^2 - |nu|^2 = {det} below the uncertainty floor 1/4"
        )
    return max(math.sqrt(max(det, 0.25)) - 0.5, 0.0)


def effective_beta(nth: float, omega: float) -> float:
    """Inverse temperature whose Gibbs occupation equals ``nth``.

    Returns +inf for nth = 0 (pure state); the cooling-limit API relies on
    this sentinel rather than raising.
    """
    if omega <= 0:
        raise DomainError("omega must be positive")
    if nth < 0:
        raise DomainError("thermal excitation must be nonnegative")
    if nth == 0.0:
        return math.inf
    return math.log1p(1.0 / nth) / omega


def vn_entropy_single_mode(nth: float) -> float:
    """Entropy of a single-mode thermal state: (n+1)ln(n+1) - n ln n."""
    if nth < 0:
        raise DomainError("occupation must be nonnegative")
    if nth == 0.0:
        return 0.0
    return (nth + 1.0) * math.log1p(nth) - nth * math.log(nth)
