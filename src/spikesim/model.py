"""Deterministic matter-radiation rate model and its linear stability analysis.

The model couples the population inversion coefficient ``r`` (ratio of
excited to non-excited two-level atoms) to the photon density ``n``:

    gamma * dr/dt = (-alpha*r - n*r + n) + p
            dn/dt = (alpha*r + n*r - n) - n/beta

``alpha`` is the spontaneous-transition amplitude, ``beta`` the inverse photon
leak rate, ``gamma`` the atomic/photon time-scale ratio and ``p`` the specific
pumping.  For positive pumping the system has a unique, globally stable fixed
point which is either a node (real contraction) or a focus (damped
oscillations, the deterministic trace of photon spikes).
"""

import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import NamedTuple


class UndefinedStationaryPointError(ValueError):
    """Raised when p = 0 and alpha = 0, where no stationary point exists."""


class State(NamedTuple):
    """Continuous state: inversion coefficient ``r`` and photon density ``n``."""

    r: float
    n: float


class Regime(str, Enum):
    STABLE_NODE = "StableNode"
    STABLE_FOCUS = "StableFocus"


@dataclass(frozen=True)
class ModelParams:
    """The four model parameters plus the derived combination z = beta*p + alpha.

    Constraints: all four finite, beta > 0, gamma > 0, alpha >= 0, p >= 0,
    and z finite.
    ``z`` is computed once at construction; the dataclass is frozen so it
    cannot go stale.
    """

    alpha: float
    beta: float
    gamma: float
    p: float
    z: float = field(init=False)

    def __post_init__(self) -> None:
        for name in _PARAMS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.p < 0:
            raise ValueError(f"p must be >= 0, got {self.p}")
        z = self.beta * self.p + self.alpha
        if not math.isfinite(z):
            raise ValueError(f"z = beta*p + alpha must be finite, got {z}")
        object.__setattr__(self, "z", z)

    def require_pumped(self) -> None:
        """Operations built on the stationary point need z > 0."""
        if self.z <= 0:
            raise UndefinedStationaryPointError(
                "stationary point undefined: p = 0 and alpha = 0"
            )


# The fields a ModelParams is made from, in order: the parameter list.
_PARAMS = tuple(f.name for f in fields(ModelParams) if f.init)


@dataclass(frozen=True)
class GammaBoundaries:
    """Regime-transition values of gamma for fixed (alpha, beta, p).

    ``gamma0`` is present only for alpha = 0 (single transition point).  For
    0 < alpha < p the focus window is (gamma1, gamma2); the discriminant is
    minimal at ``gamma_star`` with value ``delta_at_star`` < 0.  For
    alpha >= p every field except ``gamma0`` is None: the fixed point is a
    node for all gamma.
    """

    gamma0: float | None
    gamma1: float | None
    gamma2: float | None
    gamma_star: float | None
    delta_at_star: float | None


@dataclass(frozen=True)
class StabilityReport:
    """The fixed point's linearisation, with the gamma boundaries of the same
    (alpha, beta, p); ``to_dict`` writes the boundaries' fields flat, after
    ``regime``."""

    fixed_point: State
    eigenvalues: tuple[complex, complex]
    discriminant: float
    regime: Regime
    boundaries: GammaBoundaries

    def to_dict(self) -> dict:
        return {
            "fixed_point": self.fixed_point._asdict(),
            "eigenvalues": [
                {"re": ev.real, "im": ev.imag} for ev in self.eigenvalues
            ],
            "discriminant": self.discriminant,
            "regime": self.regime.value,
            **asdict(self.boundaries),
        }


def vector_field(params: ModelParams, state: State) -> tuple[float, float]:
    """Right-hand side (dr/dt, dn/dt) of the rate equations.

    Negative r or n are accepted (useful for root-finding around the
    boundary) even though the flow preserves the positive quadrant.
    """
    r, n = state
    dr = ((-params.alpha * r - n * r + n) + params.p) / params.gamma
    dn = (params.alpha * r + n * r - n) - n / params.beta
    return dr, dn


def stationary_point(params: ModelParams) -> State:
    """The unique fixed point (r*, n*) = (p(1+beta)/z, beta*p); requires z > 0."""
    params.require_pumped()
    return State(params.p * (1.0 + params.beta) / params.z, params.beta * params.p)


def jacobian(params: ModelParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Linearization of the vector field at the stationary point (row-major)."""
    r_star, n_star = stationary_point(params)
    a = params.alpha
    return (
        (-(a + n_star) / params.gamma, (1.0 - r_star) / params.gamma),
        (a + n_star, r_star - (1.0 + 1.0 / params.beta)),
    )


def _damping_sum(params: ModelParams) -> float:
    # Negated trace of the Jacobian, i.e. -(lambda_1 + lambda_2).
    z = params.z
    return z / params.gamma + params.alpha * (1.0 + params.beta) / (z * params.beta)


def discriminant(params: ModelParams) -> float:
    """Discriminant of the characteristic polynomial; its sign picks the regime."""
    params.require_pumped()
    s = _damping_sum(params)
    return 0.25 * s * s - params.z / (params.gamma * params.beta)


def eigenvalues(params: ModelParams) -> tuple[complex, complex]:
    """Characteristic roots, always returned as a complex pair.

    The first root carries the + square-root branch, so in the focus regime
    its imaginary part is +sqrt(-discriminant).  Both real parts are negative
    for any positive parameter set.
    """
    params.require_pumped()
    half = 0.5 * _damping_sum(params)
    delta = discriminant(params)
    if delta >= 0.0:
        root = math.sqrt(delta)
        return complex(-half + root, 0.0), complex(-half - root, 0.0)
    root = math.sqrt(-delta)
    return complex(-half, root), complex(-half, -root)


def classify_regime(params: ModelParams) -> Regime:
    """StableNode for discriminant >= 0 (boundary included), else StableFocus."""
    return Regime.STABLE_NODE if discriminant(params) >= 0.0 else Regime.STABLE_FOCUS


def gamma_boundaries(params: ModelParams) -> GammaBoundaries:
    """Regime boundaries in gamma for the given (alpha, beta, p).

    gamma1 is evaluated as z/u_plus with u_plus the large root of the
    quadratic in z/gamma, and gamma2 through the product of roots.  The
    textbook expression subtracts two nearly equal square roots as
    alpha -> 0 and loses every significant digit there; this route does not.
    """
    params.require_pumped()
    a, b, p, z = params.alpha, params.beta, params.p, params.z

    if a >= p:
        # Discriminant minimum is >= 0: node for every gamma.  (alpha = 0 is
        # impossible here: it would force p = 0, caught by require_pumped.)
        return GammaBoundaries(None, None, None, None, None)

    gamma_star = b * z * z / (2.0 * b * p + a * (1.0 - b))
    delta_at_star = -(p - a) / (z * b)

    if a == 0.0:
        return GammaBoundaries(b * b * p / 4.0, None, None, gamma_star, delta_at_star)

    c = a * (1.0 + b) / (z * b)
    u_plus = (2.0 / b - c) + 2.0 * math.sqrt((p - a) / (z * b))
    gamma1 = z / u_plus
    # Where c * c underflows to 0, gamma2 takes its alpha -> 0 limit.
    gamma2 = z * u_plus / (c * c) if c * c else math.inf
    return GammaBoundaries(None, gamma1, gamma2, gamma_star, delta_at_star)


def stability_report(params: ModelParams) -> StabilityReport:
    return StabilityReport(
        fixed_point=stationary_point(params),
        eigenvalues=eigenvalues(params),
        discriminant=discriminant(params),
        regime=classify_regime(params),
        boundaries=gamma_boundaries(params),
    )
