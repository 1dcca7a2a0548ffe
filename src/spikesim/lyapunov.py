"""Drift conditions for positive recurrence of the single-unit chains.

For both the frozen mean-field and the one-unit process the function
f(x, y) = (gamma + 1) x + y decreases in expectation outside a finite set of
lattice states.  This module evaluates f, the generator drift (in closed form
and by direct generator application, which must agree), the sufficient
ergodicity conditions, and scans a lattice box to exhibit the exceptional set
and verify drift <= -epsilon outside it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jump import (
    LatticeState,
    ProcessKind,
    ProcessSpec,
    _generator_sum,
    build_meanfield,
    build_oneunit,
)
from .model import ModelParams, stationary_point

DEFAULT_EPSILON = 0.1
AUTO_BOX_CAP = 1024  # per-axis cap when auto-sizing the scan box


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


def drift_closed_form(kind: ProcessKind, params: ModelParams, x, y):
    """Generator applied to f, in closed form; broadcasts over arrays.

    The closed form ignores boundary censoring, so on the mean-field kr = 0
    edge it differs from the actual chain drift (which is larger there).
    """
    g = params.gamma
    return -_decay(kind, params, x, y) / g + (g + 1.0) / g * params.p


def drift_via_generator(spec: ProcessSpec, s: LatticeState) -> float:
    """Sum of censored rate * f-increment over the five channels."""
    total = _generator_sum(spec, *_f_weights(spec), np.array([[s.r]]), np.array([[s.n]]),
                           (s.kr, s.kn))
    return float(total[0, 0])


def ergodicity_condition(kind: ProcessKind, params: ModelParams) -> ErgodicityCheck:
    """Evaluate the sufficient positive-recurrence condition for ``kind``."""
    if kind is ProcessKind.ONEUNIT:
        margin = params.gamma - params.beta
        return ErgodicityCheck(kind, margin >= 0.0, margin, "gamma >= beta")
    margin = _decay_coefficients(kind, params)[1]
    return ErgodicityCheck(kind, margin > 0.0, margin, "gamma/beta + r*/2 > 1")


def membership_bound(params: ModelParams, epsilon: float) -> float:
    """Right-hand side (gamma + 1) p + gamma * epsilon of the A-inequality."""
    return (params.gamma + 1.0) * params.p + params.gamma * epsilon


def in_exceptional_set(kind: ProcessKind, params: ModelParams, x, y, epsilon: float):
    """Membership in the exceptional set A (broadcasts over arrays)."""
    return _decay(kind, params, x, y) <= membership_bound(params, epsilon)


def scan_drift_condition(
    kind: ProcessKind,
    params: ModelParams,
    epsilon: float = DEFAULT_EPSILON,
    scan_box: tuple[int, int] | None = None,
) -> DriftReport:
    """Enumerate a lattice box, classify states by the A-inequality, and
    check that the actual (censored) generator drift is <= -epsilon outside A.

    The report records A's extent inside the box together with the analytic
    extent of the full set; ``contained`` says whether A provably fits
    strictly inside the box.  With small spontaneous rates A stretches very
    far along the y = 0 axis, so a truncated scan is the norm.
    """
    if not (0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    condition = ergodicity_condition(kind, params)
    analytic = _analytic_extent(kind, params, epsilon)

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
            max(min(4 * ext, AUTO_BOX_CAP), 1) if ext is not None else AUTO_BOX_CAP
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

    spec = build_oneunit(params) if kind is ProcessKind.ONEUNIT else build_meanfield(params)
    # Physical coordinates as a column (kr) and a row (kn); every grid
    # expression broadcasts them to the (kr_max + 1) x (kn_max + 1) box.
    X = (np.arange(kr_max + 1) / params.gamma)[:, None]
    Y = np.arange(kn_max + 1, dtype=np.float64)[None, :]

    in_a = in_exceptional_set(kind, params, X, Y, epsilon)
    drift_grid = _generator_sum(spec, *_f_weights(spec), X, Y)

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


def _decay_coefficients(kind: ProcessKind, params: ModelParams) -> tuple[float, float]:
    """(c_x, c_y) of the decay polynomial c_x*x + c_y*y (plus x*y for the
    one-unit kind); the mean-field chain is frozen at the fixed point."""
    a, b, g = params.alpha, params.beta, params.gamma
    if kind is ProcessKind.ONEUNIT:
        return a, g / b - 1.0
    if kind is ProcessKind.MEANFIELD:
        ra, na = stationary_point(params)
        return na / 2.0 + a, g / b + ra / 2.0 - 1.0
    raise ValueError(f"no Lyapunov drift for kind {kind}")


def _decay(kind: ProcessKind, params: ModelParams, x, y):
    """The decay polynomial: gamma * ((gamma + 1) p / gamma - drift of f).
    The one-unit sum stays one expression, so that numpy adds into the x*y
    temporary in place."""
    c_x, c_y = _decay_coefficients(kind, params)
    if kind is ProcessKind.ONEUNIT:
        return x * y + c_x * x + c_y * y
    return c_x * x + c_y * y


def _analytic_extent(
    kind: ProcessKind, params: ModelParams, epsilon: float
) -> tuple[int | None, int | None]:
    """Largest lattice indices that can satisfy the A-inequality, per axis
    (None when A is unbounded along that axis)."""
    c_x, c_y = _decay_coefficients(kind, params)
    bound = membership_bound(params, epsilon)
    kr_ext = int(bound / c_x * params.gamma) if c_x > 0 else None
    kn_ext = int(bound / c_y) if c_y > 0 else None
    return kr_ext, kn_ext


def _f_weights(spec: ProcessSpec) -> tuple[float, float]:
    """f-increments of one lattice step in r and in n."""
    return (spec.params.gamma + 1.0) * float(spec.r_unit), float(spec.n_unit)
