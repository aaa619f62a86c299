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
``GaussianState(alpha=, mu=, nu=)`` and ``GaussianUnitary(C=, S=, d_alpha=)``
and by the unitary factories (``make_passive``, ``make_squeezer``, ...).
The operations here (``apply_unitary``, ``compose``, ``reduce``, ``tensor``,
``product_thermal``, ``identity_unitary``) preserve them and assemble their
results unchecked, apart from a finiteness test.  Every state they return is
stored from its blocks (alpha, mu, nu) by one routine, ``_state``.

Operations broadcast over leading axes.  ``r``/``d`` may be a stack
(..., 2J) and ``M``/``G`` a stack (..., 2J, 2J) of T objects, and
``product_thermal``, ``make_passive``, ``make_squeezer``,
``gaussian_unitary_from_draws``, ``apply_unitary``, ``compose``, ``reduce``,
``mean_excitations`` and ``thermal_excitation`` then give each slice the
bits the single-object call gives: stacked ``matmul``, ``qr`` and ``det`` run
the same kernel per slice, and ``thermal_excitation`` maps its one-state
formula over the slices.  A stack built from raw numbers is checked once,
with one vectorized residual over all of its slices, so the property suites
check each chunk of trials once.  The public constructors ``GaussianState``
and ``GaussianUnitary`` take single objects.

The thermal excitation of one mode is taken in excess form, from
n = mu - 1/2 and nu, so that a cold mode's occupation is not rounded against
1/2 (``hbac.run_protocol`` iterates n itself), and is refused where double
precision cannot resolve mu^2 - |nu|^2 to ``NTH_PRECISION``.

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

# The thermal excitation is refused where double precision cannot resolve
# mu^2 - |nu|^2 to this relative precision: the level at which the CLI states
# the entropy production (``hbac.SIGMA_PRECISION``), which takes nth through
# the system's entropy.
NTH_PRECISION = 1e-8

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
        return self.r.shape[-1] // 2

    @property
    def alpha(self) -> np.ndarray:
        """First moments <a_j>: the first half of r."""
        return self.r[..., : self.modes]

    @property
    def mu(self) -> np.ndarray:
        """Hermitian block of M (lower right)."""
        j = self.modes
        return self.M[..., j:, j:]

    @property
    def nu(self) -> np.ndarray:
        """Symmetric block of M (upper right)."""
        j = self.modes
        return self.M[..., :j, j:]

    @property
    def mean_excitations(self) -> np.ndarray:
        """Per-mode mean excitation |alpha_j|^2 + mu_jj - 1/2."""
        return np.abs(self.alpha) ** 2 + np.real(np.diagonal(self.mu, axis1=-2, axis2=-1)) - 0.5


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
        _checked_unitary(c, s, d, self)

    @property
    def modes(self) -> int:
        return self.d.shape[-1] // 2

    @property
    def C(self) -> np.ndarray:
        j = self.modes
        return self.G[..., j:, j:]

    @property
    def S(self) -> np.ndarray:
        j = self.modes
        return self.G[..., :j, j:]

    @property
    def d_alpha(self) -> np.ndarray:
        return self.d[..., : self.modes]


def _dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _diag(x: np.ndarray) -> np.ndarray:
    """Complex diagonal matrices (..., j, j) with the diagonals x (..., j)."""
    out = np.zeros(x.shape + x.shape[-1:], dtype=complex)
    i = np.arange(x.shape[-1])
    out[..., i, i] = x
    return out


# Internal results are valid by construction, so they are assembled without
# the constructors' checks.  Only finiteness is tested: overflow is the one
# way a valid input can produce an invalid result.


def _moment_pair(top_left, top_right, first_half) -> tuple[np.ndarray, np.ndarray]:
    """Frozen 2J vectors (v, v*) and 2J x 2J matrices [[A*, B], [B*, A]].

    The leading (stack) axes are those of ``first_half``.
    """
    lead, j = first_half.shape[:-1], first_half.shape[-1]
    m = np.empty(lead + (2 * j, 2 * j), dtype=complex)
    np.conjugate(top_left, out=m[..., :j, :j])
    m[..., :j, j:] = top_right
    np.conjugate(top_right, out=m[..., j:, :j])
    m[..., j:, j:] = top_left
    v = np.empty(lead + (2 * j,), dtype=complex)
    v[..., :j] = first_half
    np.conjugate(first_half, out=v[..., j:])
    return _freeze(v), _freeze(m)


def _check_finite(a, b, c) -> None:
    """Raise DomainError unless the three blocks are finite."""
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise DomainError("moments are not finite (overflow)")


def _state(alpha, mu, nu, state: GaussianState | None = None) -> GaussianState:
    """Store (r, M) from the blocks into ``state``, a fresh object by default.

    mu and nu are stored as (mu + mu^dag)/2 and (nu + nu^T)/2, so that no
    sub-tolerance asymmetry accumulates, and refused unless they and alpha
    are finite: overflow is reported by the DomainError, not as a warning.
    """
    state = object.__new__(GaussianState) if state is None else state
    with np.errstate(over="ignore", invalid="ignore"):
        mu, nu = 0.5 * (mu + _dag(mu)), 0.5 * (nu + nu.swapaxes(-1, -2))
    _check_finite(alpha, mu, nu)
    r, m = _moment_pair(mu, nu, alpha)
    object.__setattr__(state, "r", r)
    object.__setattr__(state, "M", m)
    return state


def _unitary(c, s, d_alpha, u: GaussianUnitary | None = None) -> GaussianUnitary:
    """Store (G, d) from the blocks into ``u``, a fresh object by default."""
    u = object.__new__(GaussianUnitary) if u is None else u
    _check_finite(c, s, d_alpha)
    d, g = _moment_pair(c, s, d_alpha)
    object.__setattr__(u, "G", g)
    object.__setattr__(u, "d", d)
    return u


def _check_unitary(c, s, g) -> None:
    """Raise InvalidUnitaryError unless the unitary, or each of a stack, is valid.

    ``c``, ``s`` and ``g`` are its blocks C, S and matrix G.  The constraints
    are C C^dag - (S S^dag)* = I, (S C^dag)^T = S C^dag and |det G| = 1.  The
    residuals are maxima over the whole stack, so a stack of T unitaries
    costs one vectorized check, not T.
    """
    eye = np.eye(c.shape[-1])
    res_con = np.max(np.abs(c @ _dag(c) - (s @ _dag(s)).conj() - eye))
    sc = s @ _dag(c)
    res_sym = np.max(np.abs(sc.swapaxes(-1, -2) - sc))
    if res_con > SYMPLECTIC_TOL or res_sym > SYMPLECTIC_TOL:
        raise InvalidUnitaryError(
            f"symplectic constraints violated (residuals {res_con:.3e}, {res_sym:.3e})"
        )
    det = np.abs(np.linalg.det(g))
    dev = np.abs(det - 1.0)
    if np.max(dev) > DET_TOL:
        raise InvalidUnitaryError(f"|det G| = {np.ravel(det)[np.argmax(dev)]} deviates from 1")


def _checked_unitary(c, s, d_alpha, u: GaussianUnitary | None = None) -> GaussianUnitary:
    """``_unitary`` from finite blocks that pass ``_check_unitary``."""
    if not (np.isfinite(c).all() and np.isfinite(s).all() and np.isfinite(d_alpha).all()):
        raise InvalidUnitaryError("C, S and d_alpha must be finite")
    u = _unitary(c, s, d_alpha, u)
    _check_unitary(c, s, u.G)
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
    """Product of single-mode thermal states with the given occupations.

    A stack of occupations (..., J) gives the stack of product states.
    """
    nbars = np.atleast_1d(np.asarray(nbars, dtype=float))
    if np.any(nbars < 0):
        raise DomainError("occupations must be nonnegative")
    zeros = np.zeros(nbars.shape, dtype=complex)
    return _state(zeros, _diag(nbars + 0.5), _diag(zeros))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two Gaussian states (block direct sum of moments)."""
    ja, jb = a.modes, b.modes
    mu = np.zeros((ja + jb, ja + jb), dtype=complex)
    nu = np.zeros_like(mu)
    mu[:ja, :ja], mu[ja:, ja:] = a.mu, b.mu
    nu[:ja, :ja], nu[ja:, ja:] = a.nu, b.nu
    return _state(np.concatenate([a.alpha, b.alpha]), mu, nu)


# ---------------------------------------------------------------------------
# Unitary constructors


def identity_unitary(j: int) -> GaussianUnitary:
    return _unitary(
        np.eye(j, dtype=complex), np.zeros((j, j), dtype=complex), np.zeros(j, dtype=complex)
    )


def make_passive(c_unitary: np.ndarray) -> GaussianUnitary:
    """Passive (photon-number preserving) unitary from a unitary matrix C.

    With S = 0 the symplectic check is exactly C C^dag = I.  A stack of
    matrices (..., J, J) gives a stack of unitaries, checked once.
    """
    c = np.array(c_unitary, dtype=complex)
    if c.ndim < 2 or c.shape[-2] != c.shape[-1]:
        raise DimensionMismatchError(f"C must be square, got {c.shape}")
    return _checked_unitary(*_passive_blocks(c))


def make_squeezer(r_vec: Iterable[float]) -> GaussianUnitary:
    """Single-mode squeezers: C = diag(cosh r_j), S = diag(sinh r_j).

    A stack of squeeze vectors (..., J) gives a stack of unitaries.
    """
    return _checked_unitary(*_squeezer_blocks(np.atleast_1d(np.asarray(r_vec, dtype=float))))


def _passive_blocks(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, S, d_alpha) of the passive unitaries with C = c (..., J, J)."""
    zeros = np.zeros(c.shape[:-1], dtype=complex)
    return c, _diag(zeros), zeros


def _squeezer_blocks(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, S, d_alpha) of the single-mode squeezers with magnitudes r (..., J)."""
    return _diag(np.cosh(r)), _diag(np.sinh(r)), np.zeros(r.shape, dtype=complex)


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


def _haar(x: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals x (..., 2, j, j).

    Q of the QR of the complex Ginibre matrix (x_0 + i x_1) / sqrt 2, with
    the phases of diag R moved into Q.
    """
    q, r = np.linalg.qr((x[..., 0, :, :] + 1j * x[..., 1, :, :]) / math.sqrt(2))
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[..., None, :]


def haar_unitary(j: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed j x j unitary via QR of a complex Ginibre matrix."""
    return _haar(rng.standard_normal((2, j, j)))


def gaussian_unitary_draws(
    j: int, rng: np.random.Generator, max_squeeze: float = DEFAULT_MAX_SQUEEZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random numbers of one ``random_gaussian_unitary``, in draw order.

    Standard normals (2, j, j) for a Haar passive, j squeeze magnitudes
    uniform on [0, max_squeeze], and normals for a second Haar passive.
    """
    if max_squeeze < 0:
        raise DomainError("max_squeeze must be nonnegative")
    return (
        rng.standard_normal((2, j, j)),
        rng.uniform(0.0, max_squeeze, size=j),
        rng.standard_normal((2, j, j)),
    )


def gaussian_unitary_from_draws(x1, r, x2) -> GaussianUnitary:
    """passive(Haar x2) . squeeze(r) . passive(Haar x1) from ``gaussian_unitary_draws``.

    Stacked draws (the same leading axes on each) give the stack of
    unitaries.  The factors are assembled unchecked; the product is checked
    once.
    """
    w1 = _unitary(*_passive_blocks(_haar(x1)))
    sq = _unitary(*_squeezer_blocks(r))
    w2 = _unitary(*_passive_blocks(_haar(x2)))
    u = compose(w2, compose(sq, w1))
    _check_unitary(u.C, u.S, u.G)
    return u


def random_gaussian_unitary(
    j: int,
    rng_seed: int | np.random.Generator = 0,
    max_squeeze: float = DEFAULT_MAX_SQUEEZE,
) -> GaussianUnitary:
    """Random j-mode Gaussian unitary: passive . squeeze . passive.

    Passives are Haar random; squeeze magnitudes are uniform on
    [0, max_squeeze].  Deterministic in the seed.
    """
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    return gaussian_unitary_from_draws(*gaussian_unitary_draws(j, rng, max_squeeze))


# ---------------------------------------------------------------------------
# Operations


def apply_unitary(state: GaussianState, u: GaussianUnitary) -> GaussianState:
    """Evolve a state: r -> G r + d, M -> G M G^dag.

    The products run with overflow and invalid values ignored, so that
    overflow is reported by ``_state``'s DomainError alone, not by numpy
    warnings first.
    """
    if state.modes != u.modes:
        raise DimensionMismatchError(
            f"state has {state.modes} modes, unitary acts on {u.modes}"
        )
    j = state.modes
    with np.errstate(over="ignore", invalid="ignore"):
        r, m = (u.G @ state.r[..., None])[..., 0] + u.d, u.G @ state.M @ _dag(u.G)
    return _state(r[..., :j], m[..., j:, j:], m[..., :j, j:])


def compose(u2: GaussianUnitary, u1: GaussianUnitary) -> GaussianUnitary:
    """Composition u2 after u1: G = G2 G1, d = G2 d1 + d2."""
    if u1.modes != u2.modes:
        raise DimensionMismatchError("mode counts differ")
    j = u1.modes
    g = u2.G @ u1.G
    d = (u2.G @ u1.d[..., None])[..., 0] + u2.d
    return _unitary(g[..., j:, j:], g[..., :j, j:], d[..., :j])


def reduce(state: GaussianState, keep: Iterable[int]) -> GaussianState:
    """Partial trace onto the modes in ``keep`` (order preserved)."""
    keep = list(keep)
    if not keep:
        raise DomainError("keep set must be nonempty")
    if any(k < 0 or k >= state.modes for k in keep):
        raise DomainError(f"keep indices {keep} out of range")
    idx = np.array(keep)
    rows = idx[:, None]
    return _state(state.alpha[..., idx], state.mu[..., rows, idx], state.nu[..., rows, idx])


def thermal_excitation(state: GaussianState) -> float | np.ndarray:
    """Thermal excitation of a single-mode state: sqrt(mu^2 - |nu|^2) - 1/2.

    This is the minimum mean excitation reachable by single-mode Gaussian
    unitaries; it strips displacement and squeezing contributions and is
    invariant under them.  A float for one state, an array for a stack.
    Each state's mu enters the one-state formula in excess form, mu - 1/2.
    """
    if state.modes != 1:
        raise DimensionMismatchError("thermal_excitation is defined for a single mode")
    if state.M.ndim == 2:
        return _thermal_excitation_one(state.M.item(1, 1).real - 0.5, state.M.item(0, 1))
    n, nu = (state.M[..., 1, 1].real - 0.5).ravel().tolist(), state.M[..., 0, 1].ravel().tolist()
    return np.reshape(list(map(_thermal_excitation_one, n, nu)), state.M.shape[:-2])


def _thermal_excitation_one(n: float, nu: complex) -> float:
    """Thermal excitation of one state from n = mu - 1/2 and nu, in Python floats.

    In excess form, (n(n+1) - |nu|^2) / (sqrt((n+1/2)^2 - |nu|^2) + 1/2):
    the subtraction of 1/2 that would round a cold mode's occupation away
    is done exactly, and nu = 0 gives n itself.  det = mu^2 - |nu|^2 carries
    a rounding error of up to about 4 eps max(mu^2, |nu|^2), which is
    kappa eps with kappa = (mu + |nu|)^2 / det.  A det below the uncertainty
    floor 1/4 by more than that error is refused as a violation; a det that
    error could move by more than ``NTH_PRECISION`` of itself (strong
    squeezing, or squares that overflow to inf or nan) as unresolvable.
    ``abs`` of a complex is C ``hypot``; where it overflows, |nu| is inf.
    """
    try:
        nu_abs = abs(nu)
    except OverflowError:
        nu_abs = math.inf
    if nu_abs == 0.0:
        return max(n, 0.0)
    excess = n * (n + 1.0) - nu_abs * nu_abs  # det - 1/4
    det, mu = excess + 0.25, n + 0.5
    error = 4.0 * sys.float_info.epsilon * max(mu * mu, nu_abs * nu_abs)
    if det < 0.25 * (1.0 - UNCERTAINTY_TOL) and error <= 0.25 - det:
        raise InvalidStateError(f"mu^2 - |nu|^2 = {det} below the uncertainty floor 1/4")
    # Passes only on a finite det: a nan (both squares overflow) or an inf
    # (mu^2 alone overflows) is refused too.
    if not error <= NTH_PRECISION * det < math.inf:
        raise InvalidStateError(
            f"double precision cannot resolve mu^2 - |nu|^2 to a relative {NTH_PRECISION}"
            f" at this squeezing: mu = {mu}, |nu| = {nu_abs}"
        )
    return max(excess, 0.0) / (math.sqrt(max(det, 0.25)) + 0.5)


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
    """Entropy of a single-mode thermal state: (n+1)ln(n+1) - n ln n.

    Summed as ln(1+n) + n ln(1 + 1/n), two positive terms, where the two
    terms above cancel when n >> 1.  At or below 1/float max (rounded
    down), where 1/n overflows, the form above has no cancellation and is
    used instead.
    """
    if nth < 0:
        raise DomainError("occupation must be nonnegative")
    if nth == 0.0:
        return 0.0
    if nth <= 1.0 / sys.float_info.max:
        return (nth + 1.0) * math.log1p(nth) - nth * math.log(nth)
    return math.log1p(nth) + nth * math.log1p(1.0 / nth)


def occupation_from_gap(g):
    """nbar = 1/(e^g - 1), stable for small and large g."""
    return 1.0 / np.expm1(np.asarray(g, dtype=float))


def gap_from_occupation(nbar):
    """g = ln(1 + 1/nbar)."""
    return np.log1p(1.0 / np.asarray(nbar, dtype=float))


def _log1mexp(x):
    """ln(1 - e^{-x}) for x > 0, through log1p once e^{-x} < 1/2: there
    1 - e^{-x} would round away the digits of e^{-x}."""
    x, ln2 = np.asarray(x, dtype=float), math.log(2.0)
    return np.where(x < ln2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-np.maximum(x, ln2))))


def relative_entropy_chain(nbars: np.ndarray) -> float | np.ndarray:
    """Sum of D[tau(nbar_{j-1}) || tau(nbar_j)] along the chain of thermal states.

    In gaps, D[tau_a || tau_b] = ln((1 - e^{-a}) / (1 - e^{-b})) + (b - a) nbar_a:
    no difference of logs of nbar, which cancels when nbar >> 1.  A float for
    one chain (an array (N+1,)), an array of row sums for a stack of chains
    (C, N+1).  Raises DomainError unless every occupation is positive.
    """
    if not np.all(nbars > 0):
        raise DomainError("occupations must be positive")
    g = gap_from_occupation(nbars)
    log1me = _log1mexp(g)
    terms = log1me[..., :-1] - log1me[..., 1:] + (g[..., 1:] - g[..., :-1]) * nbars[..., :-1]
    total = np.sum(terms, axis=-1)
    return float(total) if total.ndim == 0 else total
