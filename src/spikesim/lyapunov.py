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
from typing import Callable

import numpy as np

from .jump import (
    LatticeState,
    ProcessKind,
    ProcessSpec,
    _generator_sum,
    _probe_spec,
    build_meanfield,
    build_oneunit,
)
from .model import ModelParams, stationary_point

DEFAULT_EPSILON = 0.1
AUTO_BOX_CAP = 1024  # per-axis cap when auto-sizing the scan box
# Grid elements per block of rows the scan works on: each float64 grid of a
# block is 128 kB, so a block's temporaries stay in cache and the scan's
# memory does not grow with the box.
_BLOCK_ELEMENTS = 1 << 14


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
    """``set_A`` holds the (kr, kn) lattice indices of the exceptional set
    found in the scan box as an (m, 2) int64 array, one row per state in
    row-major order."""

    mode: str
    epsilon: float
    scan_box: tuple[int, int]
    set_A: np.ndarray
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
            "set_A": self.set_A.tolist(),
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
    return -_decay(_decay_coefficients(kind, params), x, y) / g + (g + 1.0) / g * params.p


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
    margin = _decay_coefficients(kind, params)[2]
    return ErgodicityCheck(kind, margin > 0.0, margin, "gamma/beta + r*/2 > 1")


def membership_bound(params: ModelParams, epsilon: float) -> float:
    """Right-hand side (gamma + 1) p + gamma * epsilon of the A-inequality."""
    return (params.gamma + 1.0) * params.p + params.gamma * epsilon


def in_exceptional_set(kind: ProcessKind, params: ModelParams, x, y, epsilon: float):
    """Membership in the exceptional set A (broadcasts over arrays)."""
    return _decay(_decay_coefficients(kind, params), x, y) <= membership_bound(params, epsilon)


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

    A state outside A is a violation unless its drift is <= -epsilon, so a
    NaN drift is one.  A violation whose drift is not a finite float (NaN or
    +inf, where the rates overflow) raises ValueError naming the first such
    state in row-major order.
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
            set_A=np.empty((0, 2), dtype=np.int64),
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
    set_a, bad, drift = (_compiled_scan() or _scan_python)(
        spec, _f_weights(spec), _decay_coefficients(kind, params),
        membership_bound(params, epsilon), epsilon, (kr_max, kn_max),
        max(_BLOCK_ELEMENTS // (kn_max + 1), 1))
    finite = np.isfinite(drift)
    if not finite.all():
        first = np.argmin(finite)
        raise ValueError(f"the drift at (kr, kn) = {tuple(bad[first].tolist())} is "
                         f"{drift[first]}, not a finite float")
    violations = [{"kr": kr, "kn": kn, "drift": value}
                  for (kr, kn), value in zip(bad.tolist(), drift.tolist())]
    extent = tuple(map(int, set_a.max(axis=0))) if len(set_a) else (0, 0)

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


def _scan_python(spec: ProcessSpec, weights: tuple[float, float],
                 decay: tuple[bool, float, float], bound: float, epsilon: float,
                 box: tuple[int, int], rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``spikesim_drift_scan`` of ``_kernel.c`` over the box kr = 0 ..
    box[0], kn = 0 .. box[1], ``rows`` rows at a time, in numpy.

    A state is in A when its decay polynomial (``decay`` as
    ``_decay_coefficients`` gives it) is <= ``bound``; a state outside A is a
    violation unless its drift, the generator applied to f with the
    f-increments ``weights``, is <= -epsilon, so a NaN drift is one.
    Returns A's (kr, kn) pairs, the violations' pairs and their drifts, all
    in row-major order.
    """
    kr_max, kn_max = box
    # Physical coordinates as a column (kr) and a row (kn); each block of
    # rows broadcasts its slice of the column against the whole row.
    X = (np.arange(kr_max + 1) / spec.params.gamma)[:, None]
    Y = np.arange(kn_max + 1, dtype=np.float64)[None, :]
    blocks = []
    # The compiled scan raises no floating-point warnings either.
    with np.errstate(all="ignore"):
        for k0 in range(0, kr_max + 1, rows):
            x = X[k0:k0 + rows]
            in_a = _decay(decay, x, Y) <= bound
            drift_grid = _generator_sum(spec, *weights, x, Y, (k0, 0))
            bad = ~(in_a | (drift_grid <= -epsilon))
            blocks.append((np.argwhere(in_a) + (k0, 0), np.argwhere(bad) + (k0, 0),
                           drift_grid[bad]))
    return tuple(map(np.concatenate, zip(*blocks)))


def _compiled_scan() -> Callable | None:
    """The checked library's drift scan; None (the numpy scan runs) where it
    has none."""
    from . import _compiled

    return getattr(_compiled.library(), "scan", None)


# The engine's probe table scanned in blocks of 4 rows with the decay's x*y
# term and in one block without it: (decay, bound, rows).  With epsilon = inf
# every state outside A is a violation, so every drift there is compared bit
# for bit: a build that fuses, reorders or rewrites an operation of a rate,
# of the sum over the channels or of the decay changes some of them.
_PROBES = (((True, 0.3, 0.7), 20.0, 4), ((False, 0.3, 0.7), 5.0, 14))


def _agrees(scan: Callable) -> bool:
    """Whether ``scan``, a build's scan, gives ``_scan_python``'s outcome on
    the probes, array for array and bit for bit."""
    spec = _probe_spec()
    probes = [(spec, _f_weights(spec), decay, bound, math.inf, (13, 11), rows)
              for decay, bound, rows in _PROBES]
    return all(got.dtype == expected.dtype and got.shape == expected.shape
               and got.tobytes() == expected.tobytes()
               for probe in probes for got, expected in zip(scan(*probe), _scan_python(*probe)))


def _decay_coefficients(kind: ProcessKind, params: ModelParams) -> tuple[bool, float, float]:
    """(product, c_x, c_y) of the decay polynomial c_x*x + c_y*y, plus x*y
    first where ``product`` (the one-unit kind); the mean-field chain is
    frozen at the fixed point."""
    a, b, g = params.alpha, params.beta, params.gamma
    if kind is ProcessKind.ONEUNIT:
        return True, a, g / b - 1.0
    if kind is ProcessKind.MEANFIELD:
        ra, na = stationary_point(params)
        return False, na / 2.0 + a, g / b + ra / 2.0 - 1.0
    raise ValueError(f"no Lyapunov drift for kind {kind}")


def _decay(coefficients: tuple[bool, float, float], x, y):
    """The decay polynomial of ``_decay_coefficients``: gamma * ((gamma +
    1) p / gamma - drift of f).  The one-unit sum stays one expression, so
    that numpy adds into the x*y temporary in place."""
    product, c_x, c_y = coefficients
    if product:
        return x * y + c_x * x + c_y * y
    return c_x * x + c_y * y


def _analytic_extent(
    kind: ProcessKind, params: ModelParams, epsilon: float
) -> tuple[int | None, int | None]:
    """Largest lattice indices that can satisfy the A-inequality, per axis
    (None when A is unbounded along that axis, or when its extent there is
    not a finite float)."""
    _product, c_x, c_y = _decay_coefficients(kind, params)
    bound = membership_bound(params, epsilon)
    extents = (bound / c_x * params.gamma if c_x > 0 else math.inf,
               bound / c_y if c_y > 0 else math.inf)
    return tuple(int(ext) if math.isfinite(ext) else None for ext in extents)


def _f_weights(spec: ProcessSpec) -> tuple[float, float]:
    """f-increments of one lattice step in r and in n."""
    return (spec.params.gamma + 1.0) * float(spec.r_unit), float(spec.n_unit)
