"""Closed-form predictions for excitation-exchange collision cooling.

Short-time second-order expressions for a single collision, the induced
linear recursion for iterated collisions with machine resets, its geometric
closed form and asymptote, and the excess-variance (Fano) trajectory that
witnesses thermalization.  All of it is perturbative in chi*t; the exact
engine in ``bosecool.fock`` is the ground truth it is checked against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import DomainError, ValidityError

# (chi t)^2 p! (1+nbar_M)^p beyond this marks the expansion as untrustworthy.
VALIDITY_THRESHOLD = 0.1


@dataclass(frozen=True)
class CollisionParams:
    """Inputs of one collision family and the coefficients they imply.

    The inputs are the exchange order ``p``, the coupling ``chi``, the
    duration ``t`` and the initial system and machine occupations; callers
    that start from frequencies convert them to occupations first.  The
    coefficients are computed once, at construction.  The mean obeys
    n  ->  (1 - a) n + b  and the second moment
    m2 -> (1 - 2a) m2 + c_fano * n + b,  with

        a      = (chi t)^2 p! [(1 + nbar_M)^p - nbar_M^p]
        b      = (chi t)^2 p! nbar_M^p
        c_fano = (chi t)^2 p! [(1 + nbar_M)^p + 3 nbar_M^p]

    The sign in ``a`` is fixed by requiring the recursion to reproduce the
    single-collision mean update and its fixed point b/a = 1/(e^{p beta
    omega1} - 1); the exact Fock engine confirms this choice.  Note the
    identity c_fano = a + 4 b, which is what drives the excess variance to
    zero at the fixed point.  ``validity_factor`` is (chi t)^2 p! (1+nbar_M)^p.
    A negative or non-finite occupation raises ``DomainError``, as do a factor
    or coefficient that overflows and an ``a`` that cancels to 0 on a hot
    machine while ``b`` is positive.
    """

    p: int
    chi: float
    t: float
    nbar_s0: float
    nbar_m: float
    validity_factor: float = field(init=False, repr=False)
    a: float = field(init=False, repr=False)
    b: float = field(init=False, repr=False)
    c_fano: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 1 or int(self.p) != self.p:
            raise DomainError("p must be a positive integer")
        if self.t < 0:
            raise DomainError("t must be nonnegative")
        if self.nbar_s0 < 0 or self.nbar_m < 0:
            raise DomainError("occupations must be nonnegative")
        if not (math.isfinite(self.nbar_s0) and math.isfinite(self.nbar_m)):
            raise DomainError(
                f"occupations must be finite, got nbar_S0={self.nbar_s0}, nbar_M={self.nbar_m}"
            )
        try:
            scale = self.chit**2 * math.factorial(self.p)
            up, down = (1.0 + self.nbar_m) ** self.p, self.nbar_m**self.p
        except OverflowError:  # reported by the finiteness test below
            scale = up = down = math.inf
        coeffs = dict(validity_factor=scale * up, a=scale * (up - down), b=scale * down,
                      c_fano=scale * (up + 3 * down))
        if not all(map(math.isfinite, coeffs.values())):
            raise DomainError(
                f"collision coefficients are not finite at p={self.p}, chi={self.chi}, t={self.t}"
            )
        if coeffs["a"] == 0.0 < coeffs["b"]:
            raise DomainError(f"a = 0: (1+nbar_M)^p - nbar_M^p cancels at nbar_M={self.nbar_m}")
        for name, value in coeffs.items():
            object.__setattr__(self, name, value)
        if not self.is_perturbative:
            warnings.warn(
                f"(chi t)^2 p! (1+nbar_M)^p = {self.validity_factor:.3g} > "
                f"{VALIDITY_THRESHOLD}; short-time expressions are unreliable here",
                stacklevel=2,
            )

    @property
    def chit(self) -> float:
        return self.chi * self.t

    @property
    def is_perturbative(self) -> bool:
        return self.validity_factor <= VALIDITY_THRESHOLD


def short_time_update(params: CollisionParams) -> float:
    """System occupation after one short collision.

    nbar_S - (chi t)^2 p! [(1+nbar_M)^p nbar_S - nbar_M^p (1+nbar_S)].
    """
    ns, nm, p = params.nbar_s0, params.nbar_m, params.p
    bracket = (1.0 + nm) ** p * ns - nm**p * (1.0 + ns)
    return ns - params.chit**2 * math.factorial(p) * bracket


def cooling_condition(p: int, omega0: float, omega1: float) -> bool:
    """Whether a p-excitation exchange can cool below the bath: p*omega1 > omega0."""
    if p < 1 or omega0 <= 0 or omega1 <= 0:
        raise DomainError("need p >= 1 and positive frequencies")
    return p * omega1 > omega0


def cooling_threshold_nbar(p: int, nbar_m: float) -> float:
    """System occupation above which a collision cools: nbar_M^p / ((1+nbar_M)^p - nbar_M^p).

    For a thermal machine this equals 1/(e^{p beta omega1} - 1).  Raises
    DomainError where the denominator cancels to 0 (a hot machine).
    """
    if p < 1 or nbar_m < 0:
        raise DomainError("need p >= 1 and nonnegative machine occupation")
    up, down = (1.0 + nbar_m) ** p, nbar_m**p
    if up == down:
        raise DomainError(f"(1+nbar_M)^p - nbar_M^p cancels to 0 at nbar_M={nbar_m}")
    return down / (up - down)


def crossing_time(params: CollisionParams) -> float | None:
    """Time at which the system occupation drops past the machine's.

    Requires initial cooling toward the machine (nbar_S > nbar_M and a
    negative short-time bracket); returns None when no crossing occurs
    (also without coupling, chi = 0), and 0.0 on the degenerate boundary
    nbar_S = nbar_M.
    """
    ns, nm, p = params.nbar_s0, params.nbar_m, params.p
    if ns == nm:
        return 0.0
    bracket = (1.0 + nm) ** p * ns - nm**p * (1.0 + ns)
    if ns < nm or bracket <= 0 or params.chi == 0:
        return None
    return math.sqrt((ns - nm) / (math.factorial(p) * bracket)) / abs(params.chi)


def iterate_closed_form(params: CollisionParams, rounds: int) -> float:
    """Occupation after ``rounds`` collisions: n0 (1-a)^L + b (1-(1-a)^L)/a."""
    a = params.a
    if rounds < 0:
        raise DomainError("rounds must be nonnegative")
    if a == 0.0:  # no coupling: nothing moves
        return params.nbar_s0
    if not 0.0 < a < 1.0:
        raise ValidityError(f"contraction coefficient a={a} outside (0, 1)")
    decay = (1.0 - a) ** rounds
    return params.nbar_s0 * decay + params.b * (1.0 - decay) / a


def asymptote(params: CollisionParams) -> float:
    """Large-round limit b/a; thermal at the p-fold boosted inverse temperature."""
    if params.a <= 0.0:
        raise ValidityError("no contraction; asymptote undefined")
    return params.b / params.a


def _square(x) -> float:
    """x**2 as a Python float, inf where it overflows (no error, no numpy
    warning).  Python's ** (libm pow) keeps the closed forms' bits, which
    x * x would move."""
    try:
        return float(x) ** 2
    except OverflowError:
        return math.inf


def second_moment_closed_form(params: CollisionParams, rounds: int) -> float:
    """<n^2> after ``rounds`` collisions from a Gibbs start.

    Exact geometric solution of the coupled recursions
    m2 -> (1-2a) m2 + c_fano n + b and n -> (1-a) n + b, with the Gibbs
    initial second moment 2 n0^2 + n0.  Its large-round limit
    (b/2a)(1 + c_fano/a) is exactly the Gibbs second moment of the
    asymptotic occupation (via c_fano = a + 4b), so the excess variance
    vanishes there.  An initial second moment that overflows raises
    ``DomainError``.
    """
    a, b, c = params.a, params.b, params.c_fano
    n0 = params.nbar_s0
    m2_0 = 2.0 * _square(n0) + n0
    if not math.isfinite(m2_0):
        raise DomainError(f"the Gibbs second moment 2 n0^2 + n0 overflows at nbar_S0={n0}")
    if a == 0.0:  # no coupling: nothing moves
        return m2_0
    if not 0.0 < a < 0.5:
        raise ValidityError(f"second-moment recursion needs a in (0, 1/2), got {a}")
    da = (1.0 - a) ** rounds
    d2a = (1.0 - 2.0 * a) ** rounds
    return (
        d2a * m2_0
        + n0 * c * (da - d2a) / a
        + (c * b / a) * ((1.0 - d2a) / (2.0 * a) - (da - d2a) / a)
        + b * (1.0 - d2a) / (2.0 * a)
    )


def fano_factor(mean_n: float, mean_n2: float) -> float:
    """Excess-variance witness: zero exactly for a Gibbs-distributed occupation.

    A ``mean_n`` whose square is not finite raises ``DomainError``.
    """
    if mean_n <= 0:
        return 0.0
    square = _square(mean_n)
    if not math.isfinite(square):
        raise DomainError(f"<n>^2 is not finite at mean occupation {mean_n}")
    return (mean_n2 - square) / (mean_n * (mean_n + 1.0)) - 1.0


def fano_closed_form(params: CollisionParams, rounds: int) -> float:
    """Excess-variance witness after ``rounds`` collisions; 0 marks a Gibbs profile."""
    return fano_factor(
        iterate_closed_form(params, rounds), second_moment_closed_form(params, rounds)
    )
