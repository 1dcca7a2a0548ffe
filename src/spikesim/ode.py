"""Fixed-step RK4 integration of the deterministic rate equations.

A fixed step keeps trajectories reproducible and makes time-alignment with
jump paths trivial; the system is two-dimensional and non-stiff at the
parameter sets of interest, so adaptivity buys nothing.

A run is one stream of chunks of samples (``OdeStream``), one chunk per call
of the RK4 loop, compiled or its Python twin; ``integrate`` holds it whole.
"""

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, State

# Components more negative than this are treated as model misuse rather than
# round-off overshoot.
OVERSHOOT_LIMIT = -1e-9

# Default cap on stored samples; the stride is widened to stay under it.
MAX_STORED_SAMPLES = 200_000


class IntegrationBlowupError(RuntimeError):
    """Non-finite state produced by an integration step."""


class NegativeOvershootError(RuntimeError):
    """A component fell below the overshoot limit (not a round-off artifact)."""


@dataclass
class Trajectory:
    """Sampled ODE solution: strictly increasing times starting at 0."""

    t: np.ndarray
    r: np.ndarray
    n: np.ndarray
    params: ModelParams
    dt: float
    sample_every: int
    clamp_count: int = 0


def integrate(
    params: ModelParams,
    initial: State,
    t_end: float,
    dt: float = 1e-3,
    sample_every: int | None = None,
) -> Trajectory:
    """Integrate from ``initial`` over [0, t_end] with classical RK4: the run
    of ``OdeStream`` held whole (its ``collect``).

    The step actually used is t_end/round(t_end/dt) so the horizon is hit
    exactly.  Samples are kept every ``sample_every`` steps (plus the final
    state); when omitted, the stride is chosen to keep at most
    MAX_STORED_SAMPLES points.

    Tiny negative overshoot (>= -1e-9) is clamped to zero and counted in
    ``clamp_count``; anything below that limit raises, as does a non-finite
    state, naming the first bad step.
    """
    return OdeStream(params, initial, t_end, dt, sample_every).collect()


# Samples an ``OdeStream`` chunk holds.  The RK4 loop's slice fills at 1024
# to about 6400 rows, and its three float64 arrays take 96 KiB, under
# glibc's 128 KiB mmap threshold: one mapped and freed would raise the
# threshold, and so move the peak RSS of what the process does next.
_CHUNK_SAMPLES = 4096


class OdeStream:
    """One run of ``integrate``, a chunk of samples at a time and held
    nowhere whole: the start, then the samples of each call of the RK4 loop,
    each chunk (t, r, n) views of buffers that the next chunk overwrites.
    Its arguments are checked as ``integrate``'s; ``initial``, ``dt`` and
    ``sample_every`` are then the start as floats, the step actually used
    and the stride, and ``clamp_count`` the clamps once it has ended.
    ``rows``, set before the first chunk is taken, is handed the ODE CSV
    rows of each chunk (``io.write_ode_csv``'s, the start's excepted) before
    it, in views that the next chunk may overwrite.  A failed step raises
    ``integrate``'s error in place of its chunk.  It runs once."""

    def __init__(self, params: ModelParams, initial: State, t_end: float, dt: float = 1e-3,
                 sample_every: int | None = None) -> None:
        r0, n0 = float(initial[0]), float(initial[1])
        if not (0 <= r0 < math.inf and 0 <= n0 < math.inf):
            raise ValueError(f"initial state must be finite and non-negative, got ({r0}, {n0})")
        if not (0 < t_end < math.inf):
            raise ValueError(f"t_end must be finite and > 0, got {t_end}")
        if not (0 < dt <= t_end):
            raise ValueError(f"dt must satisfy 0 < dt <= t_end, got {dt}")

        # Both loops count steps in int64, as the compiled one stores them.
        if not t_end / dt < 2**63:
            raise ValueError(f"t_end / dt must be below 2**63 steps, got {t_end / dt:.6g}")

        self.n_steps = max(1, round(t_end / dt))
        self.dt = t_end / self.n_steps
        if sample_every is None:
            sample_every = max(1, math.ceil(self.n_steps / MAX_STORED_SAMPLES))
        if not 1 <= sample_every < 2**63:
            raise ValueError(f"sample_every must be in [1, 2**63), got {sample_every}")
        self.params, self.initial, self.sample_every = params, State(r0, n0), sample_every
        self.clamp_count = 0
        self.rows: Callable | None = None
        self._chunks = self._run()

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return self._chunks

    def _run(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        samples = np.empty((3, _CHUNK_SAMPLES))
        samples[:, 0] = 0.0, *self.initial
        yield tuple(samples[:, :1])  # the loops store from index 1 on
        rk4 = _compiled_rk4() or _rk4_python
        for chunk, outcome in rk4(self.params, self.dt, self.n_steps, self.sample_every,
                                  OVERSHOOT_LIMIT, *samples, self.rows):
            if outcome is not None:
                self.clamp_count, fail, step, value = outcome
                if fail:
                    error, message = _FAILURES[fail]
                    raise error(message.format(step=step, t=step * self.dt, value=value))
            yield chunk

    def collect(self) -> Trajectory:
        """The run held whole, taken from a stream none of whose chunks was
        taken yet: ``integrate``'s trajectory."""
        # The start, every stride, and the terminal state even off-stride.
        path = np.empty((3, -(-self.n_steps // self.sample_every) + 1))
        kept = 0
        for chunk in self:
            size = len(chunk[0])
            path[:, kept:kept + size] = chunk
            kept += size
        return Trajectory(*path[:, :kept], self.params, self.dt, self.sample_every,
                          self.clamp_count)


# By the RK4 loops' fail code, the error of a failed step and its message.
_FAILURES = (
    None,
    (IntegrationBlowupError, "non-finite state at step {step} (t = {t:.6g})"),
    (NegativeOvershootError, "r = {value:.6g} below overshoot limit at step {step} (t = {t:.6g})"),
    (NegativeOvershootError, "n = {value:.6g} below overshoot limit at step {step} (t = {t:.6g})"),
)


def _rk4_python(params: ModelParams, h: float, n_steps: int, sample_every: int,
                overshoot_limit: float, ts: np.ndarray, rs: np.ndarray, ns: np.ndarray,
                rows: Callable | None = None
                ) -> Iterator[tuple[tuple[np.ndarray, ...], tuple[int, int, int, float] | None]]:
    """``spikesim_rk4`` of ``_kernel.c`` from (rs[0], ns[0]), statement for
    statement: the samples stored in ``ts``, ``rs`` and ``ns`` from index 1
    on, yielded each time they are full and at the end, and None, or at the
    end the outcome: the clamp count, the fail code (an index into
    ``_FAILURES``, 0 when no step failed), the step it ended at and the
    component below the limit, or 0.0.  Given ``rows``, each chunk's rows
    (``_python_rows``) are handed to it first."""
    r, n = float(rs[0]), float(ns[0])
    clamps, stored, fail, value = 0, 1, 0, 0.0
    half, sixth = 0.5 * h, h / 6.0
    alpha, beta, gamma, p = params.alpha, params.beta, params.gamma, params.p
    isfinite = math.isfinite
    for step in range(1, n_steps + 1):
        # model.vector_field at the four stages, term for term and in its
        # operation order, so the path is bit-identical to calling it.
        k1r = ((-alpha * r - n * r + n) + p) / gamma
        k1n = (alpha * r + n * r - n) - n / beta
        r2, n2 = r + half * k1r, n + half * k1n
        k2r = ((-alpha * r2 - n2 * r2 + n2) + p) / gamma
        k2n = (alpha * r2 + n2 * r2 - n2) - n2 / beta
        r3, n3 = r + half * k2r, n + half * k2n
        k3r = ((-alpha * r3 - n3 * r3 + n3) + p) / gamma
        k3n = (alpha * r3 + n3 * r3 - n3) - n3 / beta
        r4, n4 = r + h * k3r, n + h * k3n
        k4r = ((-alpha * r4 - n4 * r4 + n4) + p) / gamma
        k4n = (alpha * r4 + n4 * r4 - n4) - n4 / beta
        r += sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        n += sixth * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)

        if not (isfinite(r) and isfinite(n)):
            fail = 1
            break
        if r < 0.0:
            if r < overshoot_limit:
                fail, value = 2, r
                break
            r = 0.0
            clamps += 1
        if n < 0.0:
            if n < overshoot_limit:
                fail, value = 3, n
                break
            n = 0.0
            clamps += 1

        if step % sample_every == 0 or step == n_steps:
            ts[stored], rs[stored], ns[stored] = step * h, r, n
            stored += 1
            if stored == len(ts) and step < n_steps:
                yield _stored(rows, ts, rs, ns, stored), None
                stored = 1
    yield _stored(rows, ts, rs, ns, stored), (clamps, fail, step, value)


def _stored(rows: Callable | None, ts: np.ndarray, rs: np.ndarray, ns: np.ndarray,
            stored: int) -> tuple[np.ndarray, ...]:
    """The samples at indices 1 .. stored - 1; given ``rows``, their rows
    are handed to it first."""
    samples = ts[1:stored], rs[1:stored], ns[1:stored]
    if rows is not None:
        from .io import _SLICE_ROWS, _python_rows

        for text in _python_rows([("float", values, 0.0) for values in samples], (),
                                 _SLICE_ROWS):
            rows(text)
    return samples


# The runs the compiled loop must reproduce ``_rk4_python`` on: one that clamps
# r to 0 on many steps, its terminal sample off-stride; one that clamps twice
# and then fails on r just below the overshoot limit at step 3; one that
# clamps n to 0 once, at step 1; one that fails on n at step 1; and one whose
# state is not finite after step 1.  So each branch of a step is taken.
_PROBES = ((ModelParams(alpha=7.0, beta=0.05, gamma=0.01, p=0.0), 0.0, 1e-10, 1e-2, 500, 7),
           (ModelParams(alpha=7.0, beta=1.0, gamma=0.01, p=0.0), 0.0, 1e-10, 1e-2, 50, 1),
           (ModelParams(alpha=0.0, beta=0.05, gamma=0.01, p=1.0), 0.0, 1e-14, 0.3, 500, 13),
           (ModelParams(alpha=0.0, beta=0.01, gamma=0.01, p=0.0), 0.0, 1.0, 0.5, 5, 1),
           (ModelParams(alpha=0.01, beta=1.0, gamma=1.0, p=7.0), 1e200, 1e200, 1e-2, 5, 1))
# A run whose rows fill the RK4 loop's slice more than twice.
_ROWS_PROBE = (ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0), 0.01, 0.01, 1e-2, 3000, 1)


def _compiled_rk4() -> Callable | None:
    """The checked library's RK4 loop; None (``_rk4_python`` runs) where it
    has none."""
    from . import _compiled

    return getattr(_compiled.library(), "rk4", None)


def _agrees(rk4: Callable) -> bool:
    """Whether ``rk4``, a build's loop, gives ``_rk4_python``'s samples and
    outcome, a failed step's included, and with rows its rows, on the probes
    and ``_ROWS_PROBE`` in chunks of 8 samples and of ``OdeStream``'s: a
    fused or reordered floating-point operation would move the path."""
    def outcome(loop, probe, capacity, rows):
        params, r0, n0, *run = probe
        buffers, path, text = np.empty((3, capacity)), [bytearray() for _ in "trn"], bytearray()
        buffers[:, 0] = 0.0, r0, n0
        for samples, end in loop(params, *run, OVERSHOOT_LIMIT, *buffers,
                                 text.extend if rows else None):
            for held, values in zip(path, samples, strict=True):
                held += values.tobytes()
        return path, end, text

    return all(outcome(rk4, probe, capacity, rows) == outcome(_rk4_python, probe, capacity, rows)
               for probe in (*_PROBES, _ROWS_PROBE) for capacity in (8, _CHUNK_SAMPLES)
               for rows in (False, True))
