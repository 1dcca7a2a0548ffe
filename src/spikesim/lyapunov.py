"""Drift conditions for positive recurrence of the single-unit chains.

For both the frozen mean-field and the one-unit process the function
f(x, y) = (gamma + 1) x + y decreases in expectation outside a finite set of
lattice states.  This module evaluates f, the generator drift (in closed form
and by direct generator application, which must agree), the sufficient
ergodicity conditions, and scans a lattice box to exhibit the exceptional set
and verify drift <= -epsilon outside it.
"""

from dataclasses import dataclass

import numpy as np

from .jump import (
    LatticeState,
    ProcessKind,
    ProcessSpec,
    build_meanfield,
    build_oneunit,
)
from .model import ModelParams, State, stationary_point

DEFAULT_EPSILON = 0.1
AUTO_BOX_CAP = 1024  # per-axis cap when auto-sizing the scan box


class BoxTooSmallError(ValueError):
    """The exceptional set provably extends beyond the requested scan box."""


@dataclass(frozen=True)
class ErgodicityCheck:
    """Outcome of a sufficient drift condition.

    ``holds = False`` means only that this sufficient condition fails; it
    does not establish transience.
    """

    kind: ProcessKind
    holds: bool
    margin: float
    condition: str


@dataclass
class DriftReport:
    mode: str
    epsilon: float
    scan_box: tuple[int, int]
    set_A: list[LatticeState]
    violations: list[dict]
    passed: bool
    inconclusive: bool
    contained: bool
    condition_margin: float
    a_extent: tuple[int, int] = (0, 0)  # max (kr, kn) of A within the box
    analytic_extent: tuple[int | None, int | None] = (None, None)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "scan_box": list(self.scan_box),
            "set_A": [[s.kr, s.kn] for s in self.set_A],
            "violations": self.violations,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "contained": self.contained,
            "condition_margin": self.condition_margin,
            "a_extent": list(self.a_extent),
            "analytic_extent": list(self.analytic_extent),
        }


def lyapunov_value(s: LatticeState, gamma: float) -> float:
    """f(x, y) = (gamma + 1) x + y at the physical coordinates of ``s``.

    Defined on the unit-photon lattice of the mean-field and one-unit
    processes (n_unit = 1).
    """
    return (gamma + 1.0) * s.r + s.n


def drift_closed_form(
    kind: ProcessKind,
    params: ModelParams,
    x,
    y,
    anchor: State | None = None,
):
    """Generator applied to f, in closed form; broadcasts over arrays.

    The closed form ignores boundary censoring, so on the mean-field kr = 0
    edge it differs from the actual chain drift (which is larger there).
    """
    a, b, g, p = params.alpha, params.beta, params.gamma, params.p
    pump_gain = (g + 1.0) / g * p
    if kind is ProcessKind.ONEUNIT:
        return -(x * y + a * x + (g / b - 1.0) * y) / g + pump_gain
    if kind is ProcessKind.MEANFIELD:
        ra, na = _resolve_anchor(params, anchor)
        return -(x * (na / 2.0 + a) + y * (g / b + ra / 2.0 - 1.0)) / g + pump_gain
    raise ValueError(f"no Lyapunov drift for kind {kind}")


def drift_via_generator(spec: ProcessSpec, s: LatticeState) -> float:
    """Sum of censored rate * f-increment over the five channels."""
    g = spec.params.gamma
    ru, nu = float(spec.r_unit), float(spec.n_unit)
    rates = spec.channel_rates(s)
    total = 0.0
    for ch, rate in zip(spec.channels, rates):
        total += rate * ((g + 1.0) * ch.dkr * ru + ch.dkn * nu)
    return total


def drift(
    kind: ProcessKind,
    params: ModelParams,
    s: LatticeState,
    anchor: State | None = None,
) -> float:
    """Closed-form generator drift of f at lattice state ``s``."""
    return float(drift_closed_form(kind, params, s.r, s.n, anchor))


def ergodicity_condition(kind: ProcessKind, params: ModelParams) -> ErgodicityCheck:
    """Evaluate the sufficient positive-recurrence condition for ``kind``."""
    if kind is ProcessKind.ONEUNIT:
        margin = params.gamma - params.beta
        return ErgodicityCheck(kind, margin >= 0.0, margin, "gamma >= beta")
    if kind is ProcessKind.MEANFIELD:
        r_star = stationary_point(params).r
        margin = params.gamma / params.beta + r_star / 2.0 - 1.0
        return ErgodicityCheck(kind, margin > 0.0, margin, "gamma/beta + r*/2 > 1")
    raise ValueError(f"no ergodicity condition for kind {kind}")


def membership_bound(params: ModelParams, epsilon: float) -> float:
    """Right-hand side (gamma + 1) p + gamma * epsilon of the A-inequality."""
    return (params.gamma + 1.0) * params.p + params.gamma * epsilon


def in_exceptional_set(
    kind: ProcessKind,
    params: ModelParams,
    x,
    y,
    epsilon: float,
    anchor: State | None = None,
):
    """Membership in the exceptional set A (broadcasts over arrays)."""
    a, b, g = params.alpha, params.beta, params.gamma
    bound = membership_bound(params, epsilon)
    if kind is ProcessKind.ONEUNIT:
        lhs = x * y + a * x + (g / b - 1.0) * y
    elif kind is ProcessKind.MEANFIELD:
        ra, na = _resolve_anchor(params, anchor)
        lhs = x * (na / 2.0 + a) + y * (g / b + ra / 2.0 - 1.0)
    else:
        raise ValueError(f"no exceptional set for kind {kind}")
    return lhs <= bound


def scan_drift_condition(
    kind: ProcessKind,
    params: ModelParams,
    anchor: State | None = None,
    epsilon: float = DEFAULT_EPSILON,
    scan_box: tuple[int, int] | None = None,
    require_containment: bool = False,
) -> DriftReport:
    """Enumerate a lattice box, classify states by the A-inequality, and
    check that the actual (censored) generator drift is <= -epsilon outside A.

    The report records A's extent inside the box together with the analytic
    extent of the full set; ``contained`` says whether A provably fits
    strictly inside the box.  With small spontaneous rates A stretches very
    far along the y = 0 axis, so a truncated scan is the norm; pass
    ``require_containment=True`` to make truncation a hard error instead.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    condition = ergodicity_condition(kind, params)
    anchor_state = _anchor_state(kind, params, anchor)
    analytic = _analytic_extent(kind, params, epsilon, anchor_state)

    if not condition.holds:
        return DriftReport(
            mode=kind.value,
            epsilon=epsilon,
            scan_box=scan_box or (0, 0),
            set_A=[],
            violations=[],
            passed=False,
            inconclusive=True,
            contained=False,
            condition_margin=condition.margin,
            analytic_extent=analytic,
        )

    if scan_box is None:
        scan_box = tuple(
            min(4 * ext, AUTO_BOX_CAP) if ext is not None else AUTO_BOX_CAP
            for ext in analytic
        )
    kr_max, kn_max = scan_box
    if kr_max < 1 or kn_max < 1:
        raise ValueError(f"scan box must be at least 1x1, got {scan_box}")

    contained = (
        analytic[0] is not None
        and analytic[1] is not None
        and analytic[0] < kr_max
        and analytic[1] < kn_max
    )
    if require_containment and not contained:
        raise BoxTooSmallError(
            f"exceptional set extends to about {analytic} (lattice units), "
            f"beyond the scan box {scan_box}"
        )

    spec = _build_spec(kind, params, anchor_state)
    g = params.gamma
    # Physical coordinates as a column (kr) and a row (kn); every grid
    # expression broadcasts them to the (kr_max + 1) x (kn_max + 1) box.
    X = (np.arange(kr_max + 1) / g)[:, None]
    Y = np.arange(kn_max + 1, dtype=np.float64)[None, :]

    in_a = in_exceptional_set(kind, params, X, Y, epsilon, anchor_state)
    drift_grid = _generator_drift_grid(spec, X, Y)

    bad = (~in_a) & (drift_grid > -epsilon)
    violations = [
        {"kr": int(i), "kn": int(j), "drift": float(drift_grid[i, j])}
        for i, j in zip(*np.nonzero(bad))
    ]

    a_kr, a_kn = np.nonzero(in_a)
    set_a = [
        LatticeState(int(i), int(j), spec.r_unit, spec.n_unit)
        for i, j in zip(a_kr, a_kn)
    ]
    extent = (
        (int(a_kr.max()), int(a_kn.max())) if len(a_kr) else (0, 0)
    )

    return DriftReport(
        mode=kind.value,
        epsilon=epsilon,
        scan_box=(kr_max, kn_max),
        set_A=set_a,
        violations=violations,
        passed=len(violations) == 0,
        inconclusive=False,
        contained=contained,
        condition_margin=condition.margin,
        a_extent=extent,
        analytic_extent=analytic,
    )


def _resolve_anchor(params: ModelParams, anchor: State | None) -> tuple[float, float]:
    if anchor is None:
        anchor = stationary_point(params)
    return float(anchor[0]), float(anchor[1])


def _anchor_state(
    kind: ProcessKind, params: ModelParams, anchor: State | None
) -> State | None:
    if kind is not ProcessKind.MEANFIELD:
        return None
    ra, na = _resolve_anchor(params, anchor)
    return State(ra, na)


def _build_spec(
    kind: ProcessKind, params: ModelParams, anchor: State | None
) -> ProcessSpec:
    if kind is ProcessKind.ONEUNIT:
        return build_oneunit(params)
    return build_meanfield(params, anchor=anchor)


def _analytic_extent(
    kind: ProcessKind,
    params: ModelParams,
    epsilon: float,
    anchor: State | None,
) -> tuple[int | None, int | None]:
    """Largest lattice indices that can satisfy the A-inequality, per axis
    (None when A is unbounded along that axis)."""
    a, b, g = params.alpha, params.beta, params.gamma
    bound = membership_bound(params, epsilon)
    if kind is ProcessKind.ONEUNIT:
        x_coef = a
        y_coef = g / b - 1.0
    else:
        ra, na = _resolve_anchor(params, anchor)
        x_coef = na / 2.0 + a
        y_coef = g / b + ra / 2.0 - 1.0
    kr_ext = int(bound / x_coef * g) if x_coef > 0 else None
    kn_ext = int(bound / y_coef) if y_coef > 0 else None
    return kr_ext, kn_ext


def _generator_drift_grid(spec: ProcessSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Generator applied to f on the box spanned by the column X (physical
    r at kr = 0, 1, ...) and the row Y (physical n at kn = 0, 1, ...).

    One channel at a time: a rate in r or n alone stays a column or a row,
    and a full-size rate is censored and scaled in place before it is added.
    """
    g = spec.params.gamma
    ru, nu = float(spec.r_unit), float(spec.n_unit)
    total = np.zeros((X.shape[0], Y.shape[1]))
    for ch in spec.channels:
        rate = ch.rate(X, Y)
        kr_min, kn_min = ch.guard
        if kr_min or kn_min:
            if np.shape(rate) != total.shape:
                rate = np.broadcast_to(rate, total.shape).copy()
            rate[:kr_min] = 0.0
            rate[:, :kn_min] = 0.0
        full = np.shape(rate) == total.shape
        total += np.multiply(rate, (g + 1.0) * ch.dkr * ru + ch.dkn * nu, out=rate if full else None)
    return total
