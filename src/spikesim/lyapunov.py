"""Drift conditions for positive recurrence of the single-unit chains.

For both the frozen mean-field and the one-unit process the function
f(x, y) = (gamma + 1) x + y decreases in expectation outside a finite set of
lattice states.  This module evaluates the generator drift of f (in closed
form and by direct generator application, which must agree), the sufficient
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
    build_meanfield,
    build_oneunit,
)
from .model import ModelParams, stationary_point

DEFAULT_EPSILON = 0.1
AUTO_BOX_CAP = 1024  # per-axis cap when auto-sizing the scan box
# States per block of rows whose drifts the scan evaluates at once: each
# float64 array of a block is 128 kB, so a block's temporaries stay in cache
# and the scan's memory does not grow with the box.
_BLOCK_ELEMENTS = 1 << 14
# The drift bound's margin in units of S (see ``_cut``): a dozen roundings
# of 2**-53 each, with room to spare.
_ROUNDING = 2.0 ** -40
# The largest S along a row at which the bound is used: no value a drift of
# the row passes through then overflows.
_NO_OVERFLOW = 2.0 ** 1000


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
    row-major order.  ``to_dict`` hands the array on as it is, and
    ``io.write_json`` writes it as a list of pairs."""

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
        return dict(vars(self), scan_box=list(self.scan_box), a_extent=list(self.a_extent),
                    analytic_extent=list(self.analytic_extent))


def drift_closed_form(kind: ProcessKind, params: ModelParams, x, y):
    """Generator applied to f, in closed form; broadcasts over arrays.

    The closed form ignores boundary censoring, so on the mean-field kr = 0
    edge it differs from the actual chain drift (which is larger there).
    """
    g = params.gamma
    return -_decay(_decay_coefficients(kind, params), x, y) / g + (g + 1.0) / g * params.p


def drift_via_generator(spec: ProcessSpec, s: LatticeState) -> float:
    """Sum of censored rate * f-increment over the five channels."""
    total = _generator_sum(spec, *_f_weights(spec), np.array([s.r]), np.array([s.n]), s.kr, s.kn)
    return float(total[0])


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
    """Classify the states of a lattice box by the A-inequality, and check
    that the actual (censored) generator drift is <= -epsilon outside A.

    The box is scanned a row at a time (``_scan``): A's prefix of each row
    is bisected, the drift is bisected against a bound on its rounding
    error to where no violation is possible, and only the states between
    go through the exact generator sum.  The report is the same, byte for
    byte, as that of every state evaluated.

    The report records A's extent inside the box together with the analytic
    extent of the full set; ``contained`` says whether A provably fits
    strictly inside the box.  With small spontaneous rates A stretches very
    far along the y = 0 axis, so a truncated scan is the norm.

    A box given smaller than 1x1 raises ValueError.  Where the ergodicity
    condition fails nothing is scanned: the report is inconclusive, with an
    empty A and, unless one was given, a 0x0 box.

    A state outside A is a violation unless its drift is <= -epsilon, so a
    NaN drift is one.  A violation whose drift is not a finite float (NaN or
    +inf, where the rates overflow) raises ValueError naming the first such
    state in row-major order.
    """
    if not (0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if scan_box is not None and min(scan_box) < 1:
        raise ValueError(f"scan box must be at least 1x1, got {scan_box}")
    condition = ergodicity_condition(kind, params)
    analytic = _analytic_extent(kind, params, epsilon)

    if condition.holds:
        kr_max, kn_max = scan_box or tuple(
            max(min(4 * ext, AUTO_BOX_CAP), 1) if ext is not None else AUTO_BOX_CAP
            for ext in analytic
        )
        spec = build_oneunit(params) if kind is ProcessKind.ONEUNIT else build_meanfield(params)
        set_a, bad, drift = _scan(spec, _f_weights(spec), _decay_coefficients(kind, params),
                                  membership_bound(params, epsilon), epsilon, (kr_max, kn_max))
    else:
        # Inconclusive: nothing is scanned, and an auto-sized box is 0x0.
        kr_max, kn_max = scan_box or (0, 0)
        set_a = bad = np.empty((0, 2), dtype=np.int64)
        drift = np.empty(0)
    finite = np.isfinite(drift)
    if not finite.all():
        first = np.argmin(finite)
        raise ValueError(f"the drift at (kr, kn) = {tuple(bad[first].tolist())} is "
                         f"{drift[first]}, not a finite float")
    violations = [{"kr": kr, "kn": kn, "drift": value}
                  for (kr, kn), value in zip(bad.tolist(), drift.tolist())]
    # Where the condition fails A is unbounded along y, so an inconclusive
    # report is never contained.
    contained = (
        analytic[0] is not None
        and analytic[1] is not None
        and analytic[0] < kr_max
        and analytic[1] < kn_max
    )

    return DriftReport(
        mode=kind.value,
        epsilon=epsilon,
        scan_box=(kr_max, kn_max),
        set_A=set_a,
        violations=violations,
        passed=condition.holds and not violations,
        inconclusive=not condition.holds,
        contained=contained,
        condition_margin=condition.margin,
        a_extent=tuple(map(int, set_a.max(axis=0))) if len(set_a) else (0, 0),
        analytic_extent=analytic,
    )


def _scan(spec: ProcessSpec, weights: tuple[float, float], decay: tuple[bool, float, float],
          bound: float, epsilon: float,
          box: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The box kr = 0 .. box[0], kn = 0 .. box[1] of ``spec`` scanned a row
    at a time, at x = kr / gamma and y = kn.

    A state is in A when its decay polynomial (``decay`` as
    ``_decay_coefficients`` gives it) is <= ``bound``; a state outside A is a
    violation unless its drift, the generator applied to f with the
    f-increments ``weights``, is <= -epsilon, so a NaN drift is one.
    Returns A's (kr, kn) pairs, the violations' pairs and their drifts, all
    in row-major order, and all as the whole box evaluated state by state
    would give them, bit for bit.

    Where c_x and c_y are finite and c_y >= 0, the decay is non-decreasing
    along each row (every rounding is monotone), so A holds a prefix of the
    row, whose length is bisected.  The drift goes through
    ``_generator_sum`` only from there to the row's cut (``_cut``), past
    which no state can be a violation.  Elsewhere each row is evaluated
    whole.
    """
    kr_max, kn_max = box
    kr = np.arange(kr_max + 1)
    _product, c_x, c_y = decay
    zero, end = np.zeros_like(kr), np.full_like(kr, kn_max + 1)
    with np.errstate(all="ignore"):
        x = kr / spec.params.gamma
        if math.isfinite(c_x) and 0.0 <= c_y < math.inf:
            lo = _first(lambda y: ~(_decay(decay, x, y) <= bound), zero, end)
            hi = _cut(spec, weights, kr, x, lo, epsilon, kn_max)
        else:
            lo, hi = zero, end
        found = [(_states(kr, zero, lo), np.empty((0, 2), np.int64), np.empty(0))]
        # The windows [lo, hi) of blocks of rows that hold about
        # _BLOCK_ELEMENTS states (a wider row is a block of its own), each
        # evaluated state by state.
        ends, done = np.cumsum(hi - lo), 0
        while done < ends[-1]:
            k0 = int(np.searchsorted(ends, done, "right"))
            k1 = max(int(np.searchsorted(ends, done + _BLOCK_ELEMENTS, "right")), k0 + 1)
            states = _states(kr[k0:k1], lo[k0:k1], hi[k0:k1])
            krs, kns = states.T
            xs, ys = x[krs], kns.astype(np.float64)
            in_a = _decay(decay, xs, ys) <= bound
            drift = _generator_sum(spec, *weights, xs, ys, krs, kns)
            bad = ~(in_a | (drift <= -epsilon))
            found.append((states[in_a], states[bad], drift[bad]))
            done = int(ends[k1 - 1])
    return tuple(map(np.concatenate, zip(*found)))


def _cut(spec: ProcessSpec, weights: tuple[float, float], kr: np.ndarray, x: np.ndarray,
         start: np.ndarray, epsilon: float, kn_max: int) -> np.ndarray:
    """Per row kr at x, the first kn >= ``start`` from which no state's
    drift can be a violation; kn_max + 1 where none is found.

    At and past the row's kn guards the drift is affine in y, D0 + D1 y.
    S(y) = S0 + S1 y bounds the magnitude of each term of the float drift,
    of every value its sum passes through and of the rounding error of an
    underflow, so the float drift lies within a dozen roundings of S(y) of
    the affine one (Higham, *Accuracy and Stability of Numerical
    Algorithms*, sections 3-4).  A state where D0 + D1 y + 2**-40 S(y) <=
    -epsilon is therefore no violation, where S stays below overflow all
    along the row.  That test falls along y where its slope is <= 0, and is
    bisected there; elsewhere the cut is kn_max + 1.
    """
    d0 = d1 = s0 = s1 = 0.0
    guard = np.zeros_like(kr)
    for k_rn, k_r, k_n, k_1, div, guard_kr, guard_kn, dkr, dkn in spec._rows:
        on = kr >= guard_kr
        w = weights[0] * dkr + weights[1] * dkn
        a, b = k_rn * x, k_r * x  # the rate is (a y + b + k_n y + k_1) / div
        scale = (abs(w) + 1.0) / min(abs(div), 1.0)
        d0 = d0 + np.where(on, (b + k_1) * w / div, 0.0)
        d1 = d1 + np.where(on, (a + k_n) * w / div, 0.0)
        s0 = s0 + np.where(on, (np.abs(b) + abs(k_1) + 1.0) * scale, 0.0)
        s1 = s1 + np.where(on, (np.abs(a) + abs(k_n) + 1.0) * scale, 0.0)
        guard = np.where(on, np.maximum(guard, guard_kn), guard)
    b0, b1 = d0 + _ROUNDING * s0, d1 + _ROUNDING * s1
    falls = (b1 <= 0.0) & (s0 + s1 * kn_max <= _NO_OVERFLOW)
    stop = np.full_like(kr, kn_max + 1)
    return _first(lambda y: falls & (b0 + b1 * y <= -epsilon),
                  np.minimum(np.maximum(start, guard), stop), stop)


def _first(test: Callable, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per row, the first y in [start, stop) that passes ``test`` (given a
    float y per row), by bisection; stop where none there does.  Along each
    row the test must fail up to some y and pass after it."""
    lo, hi = start, stop
    # Each step halves every row's range [lo, hi), at least.
    for _ in range(int((stop - start).max()).bit_length()):
        mid = (lo + hi) // 2
        passed = test(mid.astype(np.float64))
        lo, hi = np.where(passed, lo, np.minimum(mid + 1, hi)), np.where(passed, mid, hi)
    return hi


def _states(kr: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (kr, kn) pairs of each row kr's kn = lo .. hi - 1, in row-major
    order, as an (m, 2) int64 array."""
    ends = np.cumsum(hi - lo)
    states = np.empty((ends[-1], 2), np.int64)
    states[:, 0] = np.repeat(kr, hi - lo)
    states[:, 1] = np.arange(len(states)) - np.repeat(ends - hi, hi - lo)
    return states


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
