"""Exact stochastic simulation of the three Markov limits of the rate model.

All three processes share one structure: five jump channels acting on an
integer lattice, each with a bilinear intensity

    rate(r, n) = (k_rn*r*n + k_r*r + k_n*n + k_1) / div

* global(N): density process on (1/(gamma*N))Z+ x (1/N)Z+, rates of order N;
* meanfield: a single unit whose interaction term is frozen at an anchor
  (by default the deterministic fixed point), lattice (1/gamma)Z+ x Z+;
* oneunit:  the N = 1 chain, global(1) on the same lattice: rates x*y, alpha*x,
  y, p, y/beta.

A process is its coefficient table (one row per channel).  Simulation is the
exact direct method: exponential waiting time at the total rate, categorical
channel choice.  States are kept as integer lattice coordinates so
non-negativity is structural and there is no float drift over millions of
jumps.

The direct-method loop runs in C (``_kernel.c``, driven by ``_compiled``),
built on first use and called on the caller's numpy bit generator.  The
Python kernel, ``_run_python``, is the same loop over the same table, with
the same draws and operations in the same order: the reference the C loop
is checked against, and the fallback where it cannot be built or loaded.
"""

import functools
import math
import sys
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .model import ModelParams, State, stationary_point

CHANNEL_LABELS = ("stim-emission", "spont-emission", "absorption", "pumping", "leak")
# (dkr, dkn) lattice increments, common to all three processes.
CHANNEL_STEPS = ((-1, +1), (-1, +1), (+1, -1), (+1, 0), (0, -1))

DEFAULT_MAX_EVENTS = 10_000_000

_MASK64 = (1 << 64) - 1

# Lattice indices stay below 2**62, so that a run of any number of unit
# steps that memory can hold stays within the C loop's int64.
_INDEX_LIMIT = 1 << 62


class EventCapError(RuntimeError):
    """A simulation exceeded its event-storage cap."""


class ProcessKind(str, Enum):
    GLOBAL = "global"
    MEANFIELD = "meanfield"
    ONEUNIT = "oneunit"


class Termination(str, Enum):
    TIME_HORIZON = "TimeHorizon"
    MAX_JUMPS = "MaxJumps"
    ABSORBED = "Absorbed"


@dataclass(frozen=True)
class LatticeState:
    """Integer lattice point; physical values are kr*r_unit and kn*n_unit."""

    kr: int
    kn: int
    r_unit: Fraction
    n_unit: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.kr < _INDEX_LIMIT and 0 <= self.kn < _INDEX_LIMIT):
            raise ValueError(f"lattice coordinates must be >= 0 and < 2**62, "
                             f"got ({self.kr}, {self.kn})")

    @property
    def r(self) -> float:
        return float(self.kr * self.r_unit)

    @property
    def n(self) -> float:
        return float(self.kn * self.n_unit)


@dataclass(frozen=True)
class ProcessSpec:
    """Immutable definition of one jump process (shareable across threads).

    ``table`` is the coefficient table, one row ``(k_rn, k_r, k_n, k_1,
    div)`` per channel in ``CHANNEL_LABELS`` order: the uncensored rate
    (k_rn*r*n + k_r*r + k_n*n + k_1) / div.  The divisor keeps a rate such
    as n / beta exactly as written, which n * (1 / beta) would not be.
    """

    params: ModelParams
    kind: ProcessKind
    table: tuple[tuple[float, float, float, float, float], ...]
    r_unit: Fraction
    n_unit: Fraction
    n_units: int = 1
    anchor: State | None = None

    def __post_init__(self):
        # The loops and the paths take the units as floats.
        for name in ("r_unit", "n_unit"):
            try:
                unit = float(getattr(self, name))
            except OverflowError:
                unit = math.inf
            if not 0 < unit < math.inf:
                raise ValueError(f"lattice unit {name} = {unit} is not a finite float above 0")

    @functools.cached_property
    def _rows(self) -> tuple[tuple, ...]:
        """The table as the direct-method loops and the generator sums read
        it, one row per channel: (k_rn, k_r, k_n, k_1, div, guard_kr,
        guard_kn, dkr, dkn).  The guard is the (kr, kn) below which the rate
        is forced to zero (0: never).  Steps are unit steps, so a term in r
        vanishes at kr = 0 and a term in n at kn = 0; only a term that
        survives there needs a guard."""
        return tuple((k_rn, k_r, k_n, k_1, div,
                      -dkr if dkr < 0 and (k_n or k_1) else 0,
                      -dkn if dkn < 0 and (k_r or k_1) else 0, dkr, dkn)
                     for (k_rn, k_r, k_n, k_1, div), (dkr, dkn)
                     in zip(self.table, CHANNEL_STEPS, strict=True))

    @functools.cached_property
    def _table(self):
        """``_rows`` as the compiled loop reads them, made on its first run."""
        from . import _compiled

        return _compiled.table(self._rows, float(self.r_unit), float(self.n_unit))

    def lattice_state(self, r: float, n: float) -> LatticeState:
        """Nearest lattice point to the physical state (r, n)."""
        if not (0 <= r < math.inf and 0 <= n < math.inf):
            raise ValueError(f"physical state must be finite and non-negative, got ({r}, {n})")
        kr, kn = r / float(self.r_unit), n / float(self.n_unit)
        if not (kr < _INDEX_LIMIT and kn < _INDEX_LIMIT):
            raise ValueError(f"physical state ({r}, {n}) is past lattice index 2**62")
        return LatticeState(kr=round(kr), kn=round(kn), r_unit=self.r_unit, n_unit=self.n_unit)

    def channel_rates(self, s: LatticeState) -> list[float]:
        """Censored intensities at ``s``: a channel below its guard
        contributes zero.  They are the rates both direct-method loops draw
        against, evaluated at the loops' products ``kr * float(r_unit)`` and
        ``kn * float(n_unit)``, which can differ from ``s.r``/``s.n`` (the
        correctly rounded ``kr * r_unit``) in the last bit."""
        r, n = s.kr * float(self.r_unit), s.kn * float(self.n_unit)
        return [_rate(row, r, n) if s.kr >= row[5] and s.kn >= row[6] else 0.0
                for row in self._rows]


def _rate(row: tuple, r, n):
    """The uncensored rate of a ``_rows`` row.  Zero terms are skipped,
    which gives the same float as the full form; over a column of r and a
    row of n, a rate in one variable stays a column or a row."""
    k_rn, k_r, k_n, k_1, div = row[:5]
    value = k_rn * r * n if k_rn else 0.0
    for coef, var in ((k_r, r), (k_n, n), (k_1, 1.0)):
        if coef:
            value = value + coef * var
    return value / div if div != 1.0 else value


@dataclass
class JumpTrajectory:
    """Event-indexed path: state *after* event i is (krs[i], kns[i]).

    ``t_end`` is the horizon actually covered: the requested time horizon
    when the run reached it or was absorbed (the final state persists up to
    it), otherwise, when the jump count stopped the run or no horizon was
    given, the last event time (0.0 with no event).
    """

    spec: ProcessSpec
    initial: LatticeState
    seed: int
    times: np.ndarray
    krs: np.ndarray
    kns: np.ndarray
    channels: np.ndarray
    terminated_by: Termination
    t_end: float

    @property
    def n_events(self) -> int:
        return len(self.times)

    def step_times(self) -> np.ndarray:
        """Event times prefixed with t = 0 (matching step_* value arrays)."""
        return np.concatenate(([0.0], self.times))

    def step_r(self) -> np.ndarray:
        """r at t = 0, then after each event: each entry, the first one
        included, is the lattice index times the unit, so a lattice state
        has one value along the path."""
        return np.concatenate(([self.initial.kr], self.krs)) * float(self.spec.r_unit)

    def step_n(self) -> np.ndarray:
        return np.concatenate(([self.initial.kn], self.kns)) * float(self.spec.n_unit)


def build_global(params: ModelParams, n_units: int) -> ProcessSpec:
    """N-unit density process: rates N*r*n, alpha*N*r, N*n, N*p, N*n/beta."""
    if not isinstance(n_units, int) or n_units < 1:
        raise ValueError(f"n_units must be a positive integer, got {n_units}")
    try:
        nf = float(n_units)
    except OverflowError:
        raise ValueError("n_units must be finite as a float") from None
    a, b, p = params.alpha, params.beta, params.p
    return ProcessSpec(
        params=params,
        kind=ProcessKind.GLOBAL,
        table=_make_table(
            {"k_rn": nf}, {"k_r": a * nf}, {"k_n": nf}, {"k_1": nf * p}, {"k_n": nf, "div": b},
        ),
        r_unit=Fraction(1, n_units) / Fraction(params.gamma),
        n_unit=Fraction(1, n_units),
        n_units=n_units,
    )


def build_meanfield(params: ModelParams, anchor: State | None = None) -> ProcessSpec:
    """Single-unit process with the interaction term frozen at ``anchor``
    (default: the deterministic fixed point), which makes the chain
    time-homogeneous.

    The stimulated rate 0.5*(r*na + ra*n) is stored as (0.5*na)*r +
    (0.5*ra)*n, the same number bit for bit.  It stays positive at kr = 0,
    where the jump would exit the lattice; the engine censors it there.
    """
    a, b, p = params.alpha, params.beta, params.p
    if anchor is None:
        anchor = stationary_point(params)
    ra, na = float(anchor[0]), float(anchor[1])
    if ra < 0 or na < 0:
        raise ValueError(f"anchor must be non-negative, got ({ra}, {na})")
    return ProcessSpec(
        params=params,
        kind=ProcessKind.MEANFIELD,
        table=_make_table(
            {"k_r": 0.5 * na, "k_n": 0.5 * ra}, {"k_r": a}, {"k_n": 1.0}, {"k_1": p},
            {"k_n": 1.0, "div": b},
        ),
        r_unit=Fraction(1) / Fraction(params.gamma),
        n_unit=Fraction(1),
        anchor=State(ra, na),
    )


def build_oneunit(params: ModelParams) -> ProcessSpec:
    """The N = 1 chain: rates x*y, alpha*x, y, p, y/beta on (1/gamma)Z+ x Z+.
    It is global(1) bit for bit (a * 1.0 == a), under its own kind."""
    return replace(build_global(params, 1), kind=ProcessKind.ONEUNIT)


def _make_table(*terms: dict) -> tuple[tuple[float, float, float, float, float], ...]:
    """Table rows from each channel's named terms, in ``CHANNEL_LABELS``
    order; a term left out is 0.0, a divisor left out 1.0."""
    def row(k_rn=0.0, k_r=0.0, k_n=0.0, k_1=0.0, div=1.0):
        return k_rn, k_r, k_n, k_1, div

    return tuple(row(**named) for named in terms)


def _run(spec: ProcessSpec, kr: int, kn: int, rng: np.random.Generator, t_end: float,
         limit: int) -> tuple[np.ndarray, np.ndarray, int]:
    """At most ``limit`` events from (kr, kn) at t = 0: event times, channel
    indices and the stop code, an index into ``_STOPS``."""
    (times, _krs, _kns, channels), stop = _collect(_kernel()(spec, kr, kn, rng, t_end, limit))
    return times, channels, stop


def _kernel() -> Callable:
    """The compiled loop where it is available, the Python kernel elsewhere;
    the two draw the same stream, in the same chunks."""
    return _compiled_run() or _run_python


def _collect(chunks) -> tuple[list[np.ndarray], int]:
    """A run's chunks, each a (times, krs, kns, channels) tuple and its stop
    code, joined by appending each in place: the whole run's four arrays and
    its stop code."""
    held = [bytearray() for _ in _DTYPES]
    for arrays, stop in chunks:
        for path, values in zip(held, arrays, strict=True):
            path += values.data
    return [np.frombuffer(path, dtype) for path, dtype in zip(held, _DTYPES)], stop


def _run_python(spec: ProcessSpec, kr: int, kn: int, rng: np.random.Generator, t_end: float,
                limit: int, rows: Callable | None = None
                ) -> Iterator[tuple[tuple[np.ndarray, ...], int | None]]:
    """``spikesim_direct_method`` of ``_kernel.c``: the same draws and the
    same floating-point operations in the same order, in the chunks that
    ``_compiled.run`` calls it for, each with the stop code after the last.
    Given ``rows``, each chunk's jump CSV rows (``_python_rows``) are handed
    to it before the chunk is yielded.

    Per event: the channel rates, each summed term by term left to right
    with its zero terms left out and zero below its guard; their cumulative
    sums in channel order up to the total; one standard exponential for the
    waiting time, then one uniform for the channel.  With top the last
    channel with a positive rate, the channel is the smallest i < top whose
    cumulative rate is above the uniform, else top (as where round-off puts
    the uniform on the top edge).  The C loop finds it by a downward scan
    without a branch; here the forward loop with its break is the faster
    form.  The event time, the state after the event and the channel index
    are stored.  The stop code is 0 at the limit, 1 when absorbed and 2 at
    the time horizon, as the C loop's.
    """
    from . import _compiled

    table, r_unit, n_unit = spec._rows, float(spec.r_unit), float(spec.n_unit)
    exponential, uniform = rng.standard_exponential, rng.random
    size, stop = _compiled.CHUNK_EVENTS, 0
    times, krs, kns, picks = array("d"), array("q"), array("q"), bytearray()
    cum = [0.0] * len(table)
    t = 0.0
    for count in range(1, limit + 1):
        r, n, total, top = kr * r_unit, kn * n_unit, 0.0, 0
        for i, (k_rn, k_r, k_n, k_1, div, guard_kr, guard_kn, _dkr, _dkn) in enumerate(table):
            rate = 0.0
            if kr >= guard_kr and kn >= guard_kn:
                if k_rn:
                    rate += k_rn * r * n
                if k_r:
                    rate += k_r * r
                if k_n:
                    rate += k_n * n
                if k_1:
                    rate += k_1
                if div != 1.0:
                    rate /= div
                if rate > 0.0:
                    top = i
            total += rate
            cum[i] = total
        if total <= 0.0:
            stop = 1
            break
        t_next = t + exponential() / total
        if t_next > t_end:
            stop = 2
            break
        t = t_next
        u = uniform() * total
        pick = top
        for i in range(top):
            if u < cum[i]:
                pick = i
                break
        kr += table[pick][7]
        kn += table[pick][8]
        times.append(t)
        krs.append(kr)
        kns.append(kn)
        picks.append(pick)
        if len(picks) == size and count < limit:
            yield _chunk(spec, rows, times, krs, kns, picks), None
            times, krs, kns, picks = array("d"), array("q"), array("q"), bytearray()
    yield _chunk(spec, rows, times, krs, kns, picks), stop


# The dtypes of a run's event times, states (kr, kn) and channels.
_DTYPES = (np.float64, np.int64, np.int64, np.int8)


def _chunk(spec: ProcessSpec, rows: Callable | None, *held) -> tuple[np.ndarray, ...]:
    """The arrays of the events ``held``; given ``rows``, their rows are
    handed to it first."""
    arrays = tuple(np.frombuffer(values, dtype) for values, dtype in zip(held, _DTYPES))
    if rows is not None:
        from .io import _SLICE_ROWS, _python_rows

        for text in _python_rows(_event_columns(spec, *arrays), CHANNEL_LABELS, _SLICE_ROWS):
            rows(text)
    return arrays


def _event_columns(spec: ProcessSpec, times, krs, kns, channels) -> list[tuple]:
    """A path's events as the columns of their jump CSV rows: the time, the
    lattice state after the event and the channel."""
    return [("float", times, 0.0), ("lattice", krs, float(spec.r_unit)),
            ("lattice", kns, float(spec.n_unit)), ("label", channels, 0.0)]


# Termination by the direct-method loop's stop code.
_STOPS = (Termination.MAX_JUMPS, Termination.ABSORBED, Termination.TIME_HORIZON)


def engine() -> str:
    """The jump engine that ``simulate`` and ``next_jump`` run: "compiled" or
    "python", the compiled library's one verdict.  The first call builds and
    checks the library if it is not in the cache."""
    return "python" if _compiled_run() is None else "compiled"


def engine_status() -> str:
    """``engine()``, and after "python" the loops whose check refused the
    library, where that is why: "python; refused: formatter"."""
    from . import _compiled

    refused = _compiled.refused()
    return f"python; refused: {', '.join(refused)}" if refused else engine()


def _compiled_run() -> Callable | None:
    """The checked library's loop; None (the Python kernel runs) where it
    has none."""
    from . import _compiled

    return getattr(_compiled.library(), "run", None)


def _agrees(run: Callable) -> bool:
    """Whether ``run``, a build's loop, draws ``_run_python``'s stream on
    three probes, and with rows writes its rows too.  On ``_probe_spec``,
    from a high state so that the rates take a wide range of values: a
    build that fuses a multiply into the sum of a rate moves the first
    event's time in its last bit, and a libnpyrandom that draws differently
    moves more.  On a table whose one positive rate, pumping, is subnormal:
    the uniform times the total is then 0.0 about half the time, equal to
    the cumulative rate of every channel below pumping, and a pick that
    takes such a tie leaves the stream.  On ``_probe_spec`` from lattice
    indices past 2^53 and 2^31, for long enough that the rows fill the
    loop's slice twice."""
    def outcome(loop, spec, kr, kn, limit, rows):
        text = bytearray()
        arrays, stop = _collect(loop(spec, kr, kn, np.random.default_rng(0), math.inf, limit,
                                     text.extend if rows else None))
        return [values.tobytes() for values in arrays], stop, text

    tie = replace(_probe_spec(), table=_make_table({}, {}, {}, {"k_1": 5e-324}, {}))
    return all(outcome(run, *probe, rows) == outcome(_run_python, *probe, rows)
               for probe in ((_probe_spec(), 5, 200, 400), (tie, 0, 0, 400),
                             (_probe_spec(), 2**53 + 1, 2**31, 5000))
               for rows in (False, True))


def _probe_spec() -> ProcessSpec:
    """The table the compiled jump loop is checked on, and the drift scan
    tested on.  It has every kind of term, unit coefficients, divisors,
    guards on kr (channels 0 and 1) and on kn (channels 2 and 4), and rates
    of one to four terms with and without a guard.  Two rates, each of a term
    in r and a constant, are the same all along a row of fixed kr: one with
    neither a divisor nor a guard (channel 3), and one with both (channel 4).
    In the row kr = 0, where channels 0 and 1 are censored, the drift of the
    scan's f rises along kn."""
    return ProcessSpec(ModelParams(alpha=0.01, beta=0.7, gamma=3.0, p=7.0), ProcessKind.ONEUNIT,
                       _make_table({"k_rn": 7.4, "k_r": 2.2, "k_n": 6.6, "k_1": 1.5, "div": 4.7},
                                   {"k_n": 1.0},
                                   {"k_rn": 1.5, "k_r": 0.8, "k_n": 1.0},
                                   {"k_r": 4.9, "k_1": 6.7},
                                   {"k_r": 1.3, "k_1": 0.4, "div": 0.7}),
                       r_unit=Fraction(1, 3), n_unit=Fraction(1))


def next_jump(
    spec: ProcessSpec, s: LatticeState, rng: np.random.Generator
) -> tuple[float, int] | None:
    """Draw (waiting time, channel index) at state ``s``, or None if absorbed.

    One event of the ``simulate`` kernel, with no horizon: exactly two draws
    (one exponential, one uniform), so trajectories are reproducible from
    the seed and draw count alone.
    """
    times, picks, _stop = _run(spec, s.kr, s.kn, rng, math.inf, 1)
    return (float(times[0]), int(picks[0])) if len(picks) else None


class JumpChunk(NamedTuple):
    """Consecutive events of a run, as ``JumpTrajectory`` holds a whole
    path: their times, the state after each, and their channels."""

    times: np.ndarray
    krs: np.ndarray
    kns: np.ndarray
    channels: np.ndarray


def _covered(stop: int, t_end: float | None, last: float) -> tuple[Termination, float]:
    """A run's termination and the horizon it covers, given its stop code
    and the time of its last event (0.0 with none): see ``JumpTrajectory``."""
    terminated = _STOPS[stop]
    if t_end is None or terminated is Termination.MAX_JUMPS:
        t_end = last
    return terminated, t_end


def _check_run(spec: ProcessSpec, initial: LatticeState, t_end: float | None,
               max_jumps: int | None, seed: int) -> None:
    if t_end is None and max_jumps is None:
        raise ValueError("provide t_end and/or max_jumps")
    if t_end is not None and not (0 < t_end < math.inf):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if max_jumps is not None and max_jumps < 0:
        raise ValueError(f"max_jumps must be >= 0, got {max_jumps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if initial.r_unit != spec.r_unit or initial.n_unit != spec.n_unit:
        raise ValueError("initial state is not on the process lattice")


class JumpStream:
    """One run of ``simulate``, yielded a ``JumpChunk`` of at most
    ``_compiled.CHUNK_EVENTS`` events at a time and held nowhere whole.  A
    chunk's arrays are views of buffers that the next chunk overwrites.
    ``n_events`` counts the events yielded so far; ``terminated_by`` and
    ``t_end``, None until the stream ends, then hold what ``simulate``'s
    trajectory would.  ``rows``, when it is set before the first chunk is
    taken, is handed the jump CSV rows of each chunk's events before the
    chunk (``io.write_jump_csv``'s rows after the first), in views that the
    next chunk may overwrite.  It runs once."""

    def __init__(self, spec: ProcessSpec, initial: LatticeState, seed: int,
                 t_end: float | None, limit: int) -> None:
        self.spec, self.initial, self.seed = spec, initial, seed
        self.n_events = 0
        self.terminated_by: Termination | None = None
        self.t_end: float | None = None
        self.rows: Callable | None = None
        self._chunks = self._run(t_end, limit)

    def __iter__(self) -> Iterator[JumpChunk]:
        return self._chunks

    def _run(self, t_end: float | None, limit: int) -> Iterator[JumpChunk]:
        last = 0.0
        for arrays, stop in _kernel()(self.spec, self.initial.kr, self.initial.kn,
                                      np.random.default_rng(self.seed),
                                      math.inf if t_end is None else t_end, limit, self.rows):
            chunk = JumpChunk(*arrays)
            if len(chunk.times):
                # Cannot happen with censoring; guards regressions.
                if min(chunk.krs.min(), chunk.kns.min()) < 0:
                    raise RuntimeError("negative lattice state on the simulated path")
                # Times never decrease, so the last one is finite when all are.
                last = float(chunk.times[-1])
                if not math.isfinite(last):
                    raise ValueError(f"event time {last} is not finite: the total rate is too "
                                     f"small for its waiting time to be a float")
            self.n_events += len(chunk.times)
            if stop is not None:
                self.terminated_by, self.t_end = _covered(stop, t_end, last)
            yield chunk

    def collect(self, max_events: int = DEFAULT_MAX_EVENTS) -> JumpTrajectory:
        """The run held whole, taken from a stream none of whose chunks was
        taken yet: ``simulate``'s trajectory, its chunks appended in place.
        EventCapError at the chunk that holds event ``max_events`` + 1."""
        def capped() -> Iterator[tuple[JumpChunk, None]]:
            for chunk in self:
                if self.n_events > max_events:
                    first = self.n_events - len(chunk.times)
                    raise EventCapError(f"event cap of {max_events} exceeded at "
                                        f"t = {chunk.times[max_events - first]:.6g}")
                yield chunk, None

        (times, krs, kns, channels), _stop = _collect(capped())
        return JumpTrajectory(self.spec, self.initial, self.seed, times, krs, kns, channels,
                              self.terminated_by, self.t_end)


def simulate_chunks(
    spec: ProcessSpec,
    initial: LatticeState,
    *,
    t_end: float | None = None,
    max_jumps: int | None = None,
    seed: int,
) -> JumpStream:
    """``simulate``'s run as a ``JumpStream``: the same events, a chunk at a
    time, with no event cap, since no chunk outlives the next.  A run whose
    event times overflow to inf raises ValueError at the chunk that holds
    the first of them."""
    _check_run(spec, initial, t_end, max_jumps, seed)
    return JumpStream(spec, initial, seed, t_end, sys.maxsize if max_jumps is None else max_jumps)


def simulate(
    spec: ProcessSpec,
    initial: LatticeState,
    *,
    t_end: float | None = None,
    max_jumps: int | None = None,
    seed: int,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> JumpTrajectory:
    """Exact direct-method simulation until a horizon or absorption.

    Identical (spec, initial, seed) give identical trajectories.  The number
    of stored events is hard-capped at ``max_events``.  A run whose event
    times overflow to inf, at a total rate too small for its waiting times
    to be floats, is a ValueError.  The path is the run's stream of chunks
    (``simulate_chunks``) appended in place: 25 bytes an event, for the
    event time, the lattice state after it and the channel.
    """
    _check_run(spec, initial, t_end, max_jumps, seed)
    # One event past the cap is enough to know the cap is exceeded.
    limit = max_events + 1 if max_jumps is None else min(max_jumps, max_events + 1)
    return JumpStream(spec, initial, seed, t_end, limit).collect(max_events)


def expected_drift(spec: ProcessSpec, s: LatticeState) -> tuple[float, float]:
    """Mean instantaneous motion: sum of censored rate * physical increment.

    For the global process this coincides with the deterministic vector
    field at every lattice state; for the frozen mean-field process it
    matches the mean-field drift field away from the censored kr = 0 edge.
    """
    r, n = np.array([s.r]), np.array([s.n])
    return (float(_generator_sum(spec, float(spec.r_unit), 0.0, r, n, s.kr, s.kn)[0]),
            float(_generator_sum(spec, 0.0, float(spec.n_unit), r, n, s.kr, s.kn)[0]))


def _generator_sum(spec: ProcessSpec, w_r: float, w_n: float, r: np.ndarray, n: np.ndarray,
                   kr: np.ndarray | int, kn: np.ndarray | int) -> np.ndarray:
    """Sum over the channels of censored rate * (w_r*dkr + w_n*dkn) at the
    lattice states (kr, kn), whose physical values are ``r`` and ``n``.  The
    four broadcast together: a column and a row span a box, 1-D arrays list
    states one by one, and a state alone is an array of one.

    One channel at a time, in channel order: a rate in r or n alone keeps
    the shape of r or n, and a full-size rate is censored and scaled in
    place before it is added.
    """
    total = np.zeros(np.broadcast_shapes(r.shape, n.shape))
    for row in spec._rows:
        rate = _rate(row, r, n)
        if row[5] or row[6]:  # zero below the channel's guard
            rate = np.where((kr >= row[5]) & (kn >= row[6]), rate, 0.0)
        full = np.shape(rate) == total.shape
        total += np.multiply(rate, w_r * row[7] + w_n * row[8], out=rate if full else None)
    return total


def meanfield_drift_field(
    params: ModelParams, anchor: State, state: State
) -> tuple[float, float]:
    """Continuous drift field of the frozen mean-field process.

    Its stationary point coincides with the deterministic fixed point when
    the anchor is set there.
    """
    ra, na = anchor
    r, n = state
    emit = 0.5 * (r * na + ra * n) + params.alpha * r
    dr = (-emit + n + params.p) / params.gamma
    dn = emit - n - n / params.beta
    return dr, dn


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_path_seed(seed: int, index: int) -> int:
    """Per-path seed for ensembles: master seed XOR a 64-bit mix of the index.

    Order-independent, so ensemble members can run in any schedule.
    """
    if index < 0:
        raise ValueError(f"path index must be >= 0, got {index}")
    return (seed ^ _splitmix64(index)) & _MASK64
