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


def _excursions(
    series: PathSeries, inside: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of True in the sample mask ``inside``: each run's first
    index, the index just past its end, and its start and end times.

    A run's ends are sample times on a step path and the linear crossings of
    ``level`` on any other path.  A run open at the first sample starts at
    its time, and one still open at the last sample ends at ``series.t_end``.
    """
    t, v = series.times, series.values
    edges = np.flatnonzero(np.diff(inside, prepend=False, append=False))
    times = np.where(edges < len(t), t.take(edges, mode="clip"), series.t_end)
    if not series.step:
        # The two samples at an inner edge lie on opposite sides of the
        # level, so the crossing is well defined.
        inner = (edges > 0) & (edges < len(t))
        i = edges[inner] - 1
        times[inner] = t[i] + (level - v[i]) / (v[i + 1] - v[i]) * (t[i + 1] - t[i])
    return edges[::2], edges[1::2], times[::2], times[1::2]


def detect_spikes(series: PathSeries, a0: float) -> np.recarray:
    """Maximal excursions of the path strictly above ``a0``, time-ordered:
    a record array with fields ``t_peak, amplitude, t_start, t_end``.

    ``t_start`` is the time the path first exceeds ``a0``, ``t_end`` the
    time it is first back at or below it (or the series end), and the
    amplitude is the absolute peak value.  On lattice paths a one-event
    excursion peaks at its entry point, so t_start == t_peak can occur.
    """
    if not (a0 > 0):
        raise ValueError(f"a0 must be > 0, got {a0}")
    t, v = series.times, series.values
    first, _, t_start, t_end = _excursions(series, v > a0, a0)
    amps = t_peak = t_start  # the empty columns when no run is found
    if len(first):
        # The samples between two runs lie at or below a0, so each reduction
        # from one run's first index to the next one's is that run's peak.
        amps = np.maximum.reduceat(v, first)
        # The samples that equal their run's peak; a run's first one is t_peak.
        reached = first[0] + np.flatnonzero(
            v[first[0]:] == np.repeat(amps, np.diff(first, append=len(v)))
        )
        t_peak = t[reached[np.searchsorted(reached, first)]]
    return np.rec.fromarrays([t_peak, amps, t_start, t_end],
                             names="t_peak, amplitude, t_start, t_end")


def detect_plateaus(series: PathSeries, thr: float) -> np.recarray:
    """Maximal intervals [t_start, t_end) with the path at or below ``thr``,
    in continuous time: a record array with fields ``t_start, t_end, length``."""
    if not (thr >= 0):
        raise ValueError(f"thr must be >= 0, got {thr}")
    _, _, t_start, t_end = _excursions(series, series.values <= thr, thr)
    kept = t_end > t_start
    t_start, t_end = t_start[kept], t_end[kept]
    return np.rec.fromarrays([t_start, t_end, t_end - t_start],
                             names="t_start, t_end, length")


def tail_survival(amplitudes, a0: float) -> tuple[np.ndarray, np.ndarray]:
    """Empirical conditional survival P(A > a | A > a0) on the sample grid.

    Returns (grid, survival): the grid starts at a0 (survival 1) and walks
    the distinct amplitudes above a0; survival reaches 0 at the largest one.
    """
    amps = np.asarray(amplitudes, dtype=np.float64)
    amps = amps[amps > a0]  # a copy, sorted in place
    if len(amps) == 0:
        raise InsufficientDataError(f"no amplitudes above a0 = {a0}")
    amps.sort()
    # The first of each run of equal values, as np.unique takes them.  Not
    # np.unique itself: asked for no indices or counts, it imports numpy.ma
    # (about 10 ms, and nothing else here loads it) to test for a mask.
    first = np.concatenate(([True], amps[1:] != amps[:-1]))
    grid = np.concatenate(([a0], amps[first]))
    survival = (len(amps) - np.searchsorted(amps, grid, side="right")) / len(amps)
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


def pair_plateau_spike(plateaus: np.recarray, spikes: np.recarray) -> np.ndarray:
    """Pair each plateau with the first spike starting at or after its end.

    A spike accepts at most one plateau (the nearest preceding); plateaus
    with no following spike are dropped.  Returns the (length, amplitude)
    pairs in spike order as an (m, 2) array, (0, 2) when nothing pairs.
    """
    if len(plateaus) == 0 or len(spikes) == 0:
        return np.empty((0, 2))
    ends, starts = plateaus.t_end, spikes.t_start
    # Ends ascending, equal ends last-listed first: the last end at or
    # before a spike's start is then the first-listed latest plateau.
    order = np.lexsort((-np.arange(len(ends)), ends))
    latest = order[np.searchsorted(ends[order], starts, side="right") - 1]
    # That plateau is the spike's own unless it ends at or before the
    # previous spike's start (or after this one's, when none ends in time).
    owned = (ends[latest] <= starts) & (ends[latest] > np.append(-np.inf, starts[:-1]))
    return np.column_stack((plateaus.length[latest[owned]], spikes.amplitude[owned]))


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
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    return (0.5 * (2 * last - counts + 1) + 1.0)[group]


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
