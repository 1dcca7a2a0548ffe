"""Spike and plateau extraction from photon trajectories, tail fitting,
plateau-amplitude pairing, and the sup-distance between jump and ODE paths.

All estimators here are deterministic functions of their inputs; randomness
lives entirely in the jump engine.
"""

import math
from collections import deque
from collections.abc import Collection, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .jump import JumpStream, JumpTrajectory
from .ode import OdeStream, Trajectory


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
        return asdict(self)


@dataclass(frozen=True)
class CorrelationSummary:
    pearson: float | None
    spearman: float | None
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


class ExcursionScan:
    """The maximal runs of a path's samples strictly above ``level`` (with
    ``peaks``: spikes, each with its peak) or at or below it (plateaus),
    found a chunk of samples at a time: ``feed`` it the path's chunks in
    order, then ``close`` it at the path's end.

    A run's ends are sample times on a ``step`` path and the linear
    crossings of ``level`` on any other path.  A run open at the first
    sample starts at its time, and one still open at the end ends there.
    A run open at a chunk's last sample is carried into the next chunk: its
    start time and, with peaks, its running peak and the first time it was
    reached.  A linear path also carries its last sample, for a crossing
    between it and the next chunk's first one.  A chunk's masks go into
    buffers that the next chunk reuses.  ``level`` is an a0 above 0 with
    peaks, else a thr at or above 0.
    """

    def __init__(self, level: float, *, peaks: bool, step: bool) -> None:
        if peaks and not (level > 0):
            raise ValueError(f"a0 must be > 0, got {level}")
        if not peaks and not (level >= 0):
            raise ValueError(f"thr must be >= 0, got {level}")
        self.level, self.peaks, self.step = level, peaks, step
        self._open = False  # whether a run is open at the last sample fed
        self._start = self._peak = self._t_peak = None  # the open run's
        self._last = None  # (time, value) of the last sample fed
        self._runs: list[tuple[np.ndarray, ...]] = []  # per chunk, the runs it closed
        self._inside = self._edge = np.empty(0, bool)

    def feed(self, times: np.ndarray, values: np.ndarray) -> None:
        """Scan the next chunk of the path: its sample times and values."""
        size = len(values)
        if not size:
            return
        if len(self._inside) < size:
            self._inside, self._edge = np.empty(size, bool), np.empty(size, bool)
        inside = (np.greater if self.peaks else np.less_equal)(values, self.level,
                                                               out=self._inside[:size])
        edge = self._edge[:size]
        edge[0] = inside[0] != self._open
        np.not_equal(inside[1:], inside[:-1], out=edge[1:])
        edges = np.flatnonzero(edge)
        at = times[edges]
        if not self.step:
            # The two samples at an edge lie on opposite sides of the level,
            # so the crossing is well defined.
            i, t, v = edges[edges > 0] - 1, times, values
            inner = t[i] + (self.level - v[i]) / (v[i + 1] - v[i]) * (t[i + 1] - t[i])
            at[len(at) - len(i):] = inner
            if len(i) < len(at) and self._last is not None:
                t, v = self._last
                at[0] = t + (self.level - v) / (values[0] - v) * (times[0] - t)
        carried = [self._start] if self._open else []
        starts, ends = (at[1::2], at[::2]) if self._open else (at[::2], at[1::2])
        starts = np.concatenate((carried, starts))
        closed = len(ends)
        runs = [starts[:closed], ends]
        if self.peaks and len(starts):
            # Each run's samples in this chunk, and those that follow it up
            # to the next run's first, lie in one segment; the samples past
            # its end lie at or below the level, so the segment's peak is
            # the run's.
            first = edges[int(self._open)::2]
            if self._open:
                first = np.concatenate(([0], first))
            amps = np.maximum.reduceat(values, first)
            # The samples that equal their segment's peak (the first segment
            # taking in those before it too, all at or below the level); a
            # run's first one is where it peaks.
            lengths = np.diff(first, append=size)
            lengths[0] += first[0]
            hits = np.flatnonzero(np.equal(values, np.repeat(amps, lengths), out=inside))
            t_peaks = times[hits[np.searchsorted(hits, first)]]
            if self._open and not amps[0] > self._peak:
                amps[0], t_peaks[0] = self._peak, self._t_peak
            runs += [t_peaks[:closed], amps[:closed]]
            self._peak, self._t_peak = amps[-1], t_peaks[-1]
        if closed:
            self._runs.append(tuple(runs))
        self._open = len(starts) > closed
        if self._open:
            self._start = starts[-1]
        self._last = times[-1], values[-1]

    def close(self, t_end: float) -> np.recarray:
        """The runs of the path fed, which ends at ``t_end``, time-ordered:
        with peaks a record array with fields ``t_peak, amplitude, t_start,
        t_end``, else ``t_start, t_end, length``."""
        width = 4 if self.peaks else 2
        runs = self._runs
        if self._open:
            runs = [*runs, tuple(np.array([value]) for value in
                                 (self._start, t_end, self._t_peak, self._peak)[:width])]
        columns = list(zip(*runs)) or [[np.empty(0)]] * width
        if self.peaks:
            # Each field written once, straight from the chunks' runs.
            fields = dict(zip(("t_start", "t_end", "t_peak", "amplitude"), columns))
            names = ("t_peak", "amplitude", "t_start", "t_end")
            spikes = np.recarray(sum(map(len, columns[0])),
                                 dtype=[(name, fields[name][0].dtype) for name in names])
            for name in names:
                np.concatenate(fields[name], out=spikes[name])
            return spikes
        t_start, t_end = map(np.concatenate, columns)
        kept = t_end > t_start
        t_start, t_end = t_start[kept], t_end[kept]
        return np.rec.fromarrays([t_start, t_end, t_end - t_start],
                                 names="t_start, t_end, length")


def _scan_whole(scan: ExcursionScan, series: PathSeries) -> np.recarray:
    scan.feed(series.times, series.values)
    return scan.close(series.t_end)


def detect_spikes(series: PathSeries, a0: float) -> np.recarray:
    """Maximal excursions of the path strictly above ``a0``, time-ordered:
    a record array with fields ``t_peak, amplitude, t_start, t_end``.

    ``t_start`` is the time the path first exceeds ``a0``, ``t_end`` the
    time it is first back at or below it (or the series end), and the
    amplitude is the absolute peak value.  On lattice paths a one-event
    excursion peaks at its entry point, so t_start == t_peak can occur.
    """
    return _scan_whole(ExcursionScan(a0, peaks=True, step=series.step), series)


def detect_plateaus(series: PathSeries, thr: float) -> np.recarray:
    """Maximal intervals [t_start, t_end) with the path at or below ``thr``,
    in continuous time: a record array with fields ``t_start, t_end, length``."""
    return _scan_whole(ExcursionScan(thr, peaks=False, step=series.step), series)


def scan_levels(
    path: Trajectory | JumpTrajectory | OdeStream | JumpStream, a0s: Collection[float],
    thrs: Collection[float],
) -> tuple[dict[float, np.recarray], dict[float, np.recarray]]:
    """The spikes above each level in ``a0s`` and the plateaus at or below
    each level in ``thrs`` of the n path of ``path``, by level: an ODE or
    jump trajectory, scanned whole, or an ``OdeStream`` or ``JumpStream``,
    run here and scanned a chunk at a time, as its trajectory would be."""
    return _scan_path(path, a0s, thrs)


def _scan_path(path: Trajectory | JumpTrajectory | OdeStream | JumpStream,
               a0s: Collection[float], thrs: Collection[float], gap: "LlnGap | None" = None
               ) -> tuple[dict[float, np.recarray], dict[float, np.recarray]]:
    """``scan_levels``, feeding the jump path to ``gap`` too where given.  A
    stream runs even when nothing is scanned, for its rows, count and end."""
    step = not isinstance(path, (Trajectory, OdeStream))
    spikes = {a0: ExcursionScan(a0, peaks=True, step=step) for a0 in a0s}
    plateaus = {thr: ExcursionScan(thr, peaks=False, step=step) for thr in thrs}
    scans = [*spikes.values(), *plateaus.values()]
    if not scans and gap is None:
        if isinstance(path, (OdeStream, JumpStream)):
            deque(path, maxlen=0)
        return {}, {}
    for times, rs, ns in _samples(path, gap is not None):
        for scan in scans:
            scan.feed(times, ns)
        if gap is not None:
            gap.feed(times, rs, ns)
        if len(times):
            last = times[-1]
    # A jump path covers its horizon; an ODE path ends at its last sample.
    t_end = path.t_end if step else float(last)
    return ({a0: scan.close(t_end) for a0, scan in spikes.items()},
            {thr: scan.close(t_end) for thr, scan in plateaus.items()})


def _samples(path: Trajectory | JumpTrajectory | OdeStream | JumpStream, with_r: bool
             ) -> Iterator[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
    """The (t, r, n) samples of ``path`` a chunk at a time, r only ``with_r``:
    a trajectory in one chunk, a jump path's step values as ``step_*`` hold
    them, and a stream's chunks as it runs (a jump stream's values in
    buffers that the next chunk reuses)."""
    if isinstance(path, Trajectory):
        yield path.t, path.r, path.n
    elif isinstance(path, JumpTrajectory):
        yield path.step_times(), path.step_r() if with_r else None, path.step_n()
    elif isinstance(path, OdeStream):
        yield from path
    else:
        r_unit, n_unit = float(path.spec.r_unit), float(path.spec.n_unit)
        yield (np.zeros(1), np.array([path.initial.kr]) * r_unit,
               np.array([path.initial.kn]) * n_unit)
        rs = ns = np.empty(0)
        for chunk in path:
            size = len(chunk.kns)
            if len(ns) < size:
                rs, ns = np.empty(size if with_r else 0), np.empty(size)
            yield (chunk.times, np.multiply(chunk.krs, r_unit, out=rs[:size]) if with_r else None,
                   np.multiply(chunk.kns, n_unit, out=ns[:size]))


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


class LlnGap:
    """The sup over [0, t] of the max-norm gap between a jump path
    (piecewise constant) and the ODE path ``ode_traj`` (piecewise linear), a
    chunk of the jump path at a time: ``feed`` it the step path's chunks in
    order, t = 0 first (as ``JumpTrajectory.step_*`` hold it), then ``close``
    it at the path's end.

    Both one-sided limits of the step path are compared at every jump time,
    and both paths at every ODE sample time and at t, which is exact for
    these interpolation classes.  The values after the last sample fed are
    carried, for the next chunk's first left limit and the ODE samples before
    it; an ODE sample at or past a chunk's last time waits for the next."""

    def __init__(self, ode_traj: Trajectory, t: float) -> None:
        if t <= 0:
            raise ValueError(f"t must be > 0, got {t}")
        self.ode, self.t = ode_traj, t
        self._gap = 0.0
        self._last = ()  # r and n after the last sample fed
        self._next = 0  # the first ODE sample not compared yet
        self._end = int(np.count_nonzero(ode_traj.t <= t))  # past the ODE samples in [0, t]

    def feed(self, times: np.ndarray, rs: np.ndarray, ns: np.ndarray) -> None:
        """Compare the next chunk of the step path: its sample times, and r
        and n from each time on."""
        size = int(np.searchsorted(times, self.t, side="right"))  # the samples in [0, t]
        if not size:
            return
        times, ode, first = times[:size], self.ode, self._next
        before, inside = first + np.searchsorted(ode.t[first:self._end], times[[0, -1]])
        held = np.searchsorted(times, ode.t[before:inside], side="right") - 1
        for values, last, path in zip((rs[:size], ns[:size]), self._last or (None, None),
                                      (ode.r, ode.n)):
            at = np.interp(times, ode.t, path)
            gaps = [values - at, values[:-1] - at[1:], values[held] - path[before:inside]]
            if last is not None:
                gaps += [last - at[:1], last - path[first:before]]
            self._gap = max(self._gap, *(np.abs(gap).max(initial=0.0) for gap in gaps))
        self._next, self._last = int(inside), (rs[size - 1], ns[size - 1])

    def close(self, t_end: float) -> float:
        """The gap of the path fed, which covers [0, t_end]."""
        ode, t = self.ode, self.t
        if t_end < t or float(ode.t[-1]) < t:
            raise CoverageError(f"trajectories cover [0, {t_end:.6g}] and "
                                f"[0, {float(ode.t[-1]):.6g}], requested [0, {t}]")
        # The ODE samples past the last time fed, and t itself: the gap on the
        # final segment is linear in time, so its maximum sits at one of them.
        return float(max(self._gap, *(
            np.abs(last - np.append(path[self._next:self._end], np.interp(t, ode.t, path))).max()
            for last, path in zip(self._last, (ode.r, ode.n)))))


def lln_sup_distance(
    jump_traj: JumpTrajectory, ode_traj: Trajectory, t: float
) -> float:
    """Sup over [0, t] of the max-norm gap between the jump path (piecewise
    constant) and the ODE path (piecewise linear): an ``LlnGap`` fed the
    jump path whole."""
    gap = LlnGap(ode_traj, t)
    gap.feed(jump_traj.step_times(), jump_traj.step_r(), jump_traj.step_n())
    return gap.close(jump_traj.t_end)
