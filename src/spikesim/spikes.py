"""Spike and plateau extraction from photon trajectories, tail fitting,
plateau-amplitude pairing, and the sup-distance between jump and ODE paths.

All estimators here are deterministic functions of their inputs; randomness
lives entirely in the jump engine.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jump import JumpTrajectory
from .ode import Trajectory


class InsufficientDataError(ValueError):
    """Not enough samples for the requested estimate."""


class CoverageError(ValueError):
    """A trajectory does not cover the requested time window."""


@dataclass(frozen=True)
class PathSeries:
    """A scalar path: values at increasing times, valid up to ``t_end``.

    ``step`` paths hold each value on [t_i, t_{i+1}) (jump trajectories);
    non-step paths interpolate linearly between samples (ODE output).
    """

    times: np.ndarray
    values: np.ndarray
    t_end: float
    step: bool

    @classmethod
    def from_jump(cls, traj: JumpTrajectory) -> "PathSeries":
        return cls(traj.step_times(), traj.step_n(), traj.t_end, step=True)

    @classmethod
    def from_ode(cls, traj: Trajectory) -> "PathSeries":
        return cls(traj.t, traj.n, float(traj.t[-1]), step=False)


@dataclass(frozen=True)
class SpikeRecord:
    """One maximal excursion above the detection threshold.

    ``t_start`` is the time the path first exceeds the threshold, ``t_end``
    the time it is first back at or below it (or the series end), and the
    amplitude is the absolute peak value.  On lattice paths a one-event
    excursion peaks at its entry point, so t_start == t_peak can occur.
    """

    t_peak: float
    amplitude: float
    t_start: float
    t_end: float


@dataclass(frozen=True)
class PlateauRecord:
    """Maximal interval [t_start, t_end) with the path at or below ``threshold``."""

    t_start: float
    t_end: float
    length: float
    threshold: float


@dataclass(frozen=True)
class TailFit:
    """Shifted-exponential fit of spike amplitudes above ``a0``.

    ``lambda_hat`` is the maximum-likelihood rate 1/mean(A - a0);
    ``r_squared`` measures log-linearity of the empirical survival curve and
    is None for a degenerate (single-level) sample.
    """

    a0: float
    lambda_hat: float
    r_squared: float | None
    n_spikes: int

    def to_dict(self) -> dict:
        return {
            "a0": self.a0,
            "lambda_hat": self.lambda_hat,
            "r_squared": self.r_squared,
            "n_spikes": self.n_spikes,
        }


@dataclass(frozen=True)
class CorrelationSummary:
    pearson: float | None
    spearman: float | None
    n: int

    def to_dict(self) -> dict:
        return {"pearson": self.pearson, "spearman": self.spearman, "n": self.n}


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as (first, last) inclusive index pairs."""
    if len(mask) == 0:
        return []
    diff = np.diff(mask.astype(np.int8))
    starts = list(np.flatnonzero(diff == 1) + 1)
    ends = list(np.flatnonzero(diff == -1))
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        ends.append(len(mask) - 1)
    return list(zip(starts, ends))


def detect_spikes(series: PathSeries, a0: float) -> list[SpikeRecord]:
    """Maximal excursions of the path strictly above ``a0``, time-ordered."""
    if not (a0 > 0):
        raise ValueError(f"a0 must be > 0, got {a0}")
    t, v = series.times, series.values
    records = []
    for first, last in _runs(v > a0):
        seg = v[first : last + 1]
        peak_idx = first + int(np.argmax(seg))
        if series.step or first == 0:
            t_start = float(t[first])
        else:
            t_start = _crossing_time(t[first - 1], v[first - 1], t[first], v[first], a0)
        if last + 1 < len(t):
            if series.step:
                t_end = float(t[last + 1])
            else:
                t_end = _crossing_time(t[last], v[last], t[last + 1], v[last + 1], a0)
        else:
            t_end = series.t_end
        records.append(
            SpikeRecord(
                t_peak=float(t[peak_idx]),
                amplitude=float(seg.max()),
                t_start=t_start,
                t_end=t_end,
            )
        )
    return records


def detect_plateaus(series: PathSeries, thr: float) -> list[PlateauRecord]:
    """Maximal intervals with the path at or below ``thr``, in continuous time."""
    if thr < 0:
        raise ValueError(f"thr must be >= 0, got {thr}")
    t, v = series.times, series.values
    records = []
    for first, last in _runs(v <= thr):
        if series.step or first == 0:
            t_start = float(t[first])
        else:
            t_start = _crossing_time(t[first - 1], v[first - 1], t[first], v[first], thr)
        if last + 1 < len(t):
            if series.step:
                t_end = float(t[last + 1])
            else:
                t_end = _crossing_time(t[last], v[last], t[last + 1], v[last + 1], thr)
        else:
            t_end = series.t_end
        if t_end > t_start:
            records.append(
                PlateauRecord(
                    t_start=t_start,
                    t_end=t_end,
                    length=t_end - t_start,
                    threshold=thr,
                )
            )
    return records


def _crossing_time(t0: float, v0: float, t1: float, v1: float, level: float) -> float:
    if v1 == v0:
        return float(t1)
    return float(t0 + (level - v0) / (v1 - v0) * (t1 - t0))


def tail_survival(amplitudes, a0: float) -> tuple[np.ndarray, np.ndarray]:
    """Empirical conditional survival P(A > a | A > a0) on the sample grid.

    Returns (grid, survival): the grid starts at a0 (survival 1) and walks
    the distinct amplitudes above a0; survival reaches 0 at the largest one.
    """
    amps = np.asarray(amplitudes, dtype=np.float64)
    amps = amps[amps > a0]
    if len(amps) == 0:
        raise InsufficientDataError(f"no amplitudes above a0 = {a0}")
    grid = np.concatenate(([a0], np.unique(amps)))
    survival = (amps[None, :] > grid[:, None]).mean(axis=1)
    return grid, survival


def fit_exponential(amplitudes, a0: float) -> TailFit:
    """Fit the conditional amplitude tail by a shifted exponential law.

    The rate is the ML estimate 1/mean(A - a0).  r_squared comes from a
    least-squares line through (a, log survival) over the grid points with
    positive survival; with a single such point it is reported as None.
    """
    amps = np.asarray(amplitudes, dtype=np.float64)
    amps = amps[amps > a0]
    if len(amps) < 2:
        raise InsufficientDataError(
            f"need at least 2 amplitudes above a0 = {a0}, got {len(amps)}"
        )
    lambda_hat = 1.0 / float(np.mean(amps - a0))

    grid, survival = tail_survival(amps, a0)
    keep = survival > 0.0
    xs, ys = grid[keep], np.log(survival[keep])
    if len(xs) < 2:
        r_squared = None
    else:
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        if ss_tot == 0.0:
            r_squared = None
        else:
            r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot
    return TailFit(
        a0=a0, lambda_hat=lambda_hat, r_squared=r_squared, n_spikes=len(amps)
    )


def pair_plateau_spike(
    plateaus: list[PlateauRecord], spikes: list[SpikeRecord]
) -> list[tuple[float, float]]:
    """Pair each plateau with the first spike starting at or after its end.

    A spike accepts at most one plateau (the nearest preceding); plateaus
    with no following spike are dropped.  Returns (length, amplitude) pairs.
    """
    if not plateaus or not spikes:
        return []
    spike_starts = np.array([s.t_start for s in spikes])
    best: dict[int, PlateauRecord] = {}
    for plateau in plateaus:
        idx = int(np.searchsorted(spike_starts, plateau.t_end, side="left"))
        if idx >= len(spikes):
            continue
        prev = best.get(idx)
        if prev is None or plateau.t_end > prev.t_end:
            best[idx] = plateau
    return [
        (best[idx].length, spikes[idx].amplitude) for idx in sorted(best)
    ]


def correlation(pairs) -> CorrelationSummary:
    """Pearson and Spearman (average ranks on ties) coefficients of pairs."""
    n = len(pairs)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 pairs, got {n}")
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (length, amplitude)")
    x, y = arr[:, 0], arr[:, 1]
    pearson = _pearson(x, y)
    spearman = _pearson(_average_ranks(x), _average_ranks(y))
    return CorrelationSummary(pearson=pearson, spearman=spearman, n=n)


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(np.dot(xc, xc))
    vy = float(np.dot(yc, yc))
    if vx == 0.0 or vy == 0.0:
        return None
    return float(np.dot(xc, yc) / math.sqrt(vx * vy))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def lln_sup_distance(
    jump_traj: JumpTrajectory, ode_traj: Trajectory, t: float
) -> float:
    """Sup over [0, t] of the max-norm gap between the jump path (piecewise
    constant) and the ODE path (piecewise linear).

    Both one-sided limits of the step path are compared at every jump time,
    and both paths are compared at every ODE sample time, which is exact for
    these interpolation classes.
    """
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if jump_traj.t_end < t or float(ode_traj.t[-1]) < t:
        raise CoverageError(
            f"trajectories cover [0, {jump_traj.t_end:.6g}] and "
            f"[0, {float(ode_traj.t[-1]):.6g}], requested [0, {t}]"
        )

    jt = jump_traj.step_times()
    jr = jump_traj.step_r()
    jn = jump_traj.step_n()
    in_window = jt <= t
    jt, jr, jn = jt[in_window], jr[in_window], jn[in_window]

    # Gap at jump times: step value after the jump vs the ODE path there,
    # and the pre-jump value vs the ODE path (left limit of the gap).
    ode_r = np.interp(jt, ode_traj.t, ode_traj.r)
    ode_n = np.interp(jt, ode_traj.t, ode_traj.n)
    gap = max(
        float(np.max(np.abs(jr - ode_r))),
        float(np.max(np.abs(jn - ode_n))),
    )
    if len(jt) > 1:
        gap = max(
            gap,
            float(np.max(np.abs(jr[:-1] - ode_r[1:]))),
            float(np.max(np.abs(jn[:-1] - ode_n[1:]))),
        )

    # Gap at ODE sample times: locate the step value in force at each sample.
    st = ode_traj.t[ode_traj.t <= t]
    idx = np.searchsorted(jt, st, side="right") - 1
    gap = max(
        gap,
        float(np.max(np.abs(jr[idx] - ode_traj.r[: len(st)]))),
        float(np.max(np.abs(jn[idx] - ode_traj.n[: len(st)]))),
    )

    # Endpoint t itself (the gap on the final segment is linear in time, so
    # its maximum sits at a compared point or here).
    r_t, n_t = ode_traj.state_at(t)
    gap = max(gap, abs(float(jr[-1]) - r_t), abs(float(jn[-1]) - n_t))
    return gap
