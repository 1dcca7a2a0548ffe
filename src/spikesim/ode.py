"""Fixed-step RK4 integration of the deterministic rate equations.

A fixed step keeps trajectories reproducible and makes time-alignment with
jump paths trivial; the system is two-dimensional and non-stiff at the
parameter sets of interest, so adaptivity buys nothing.
"""

import math
from collections.abc import Callable
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

    def final_state(self) -> State:
        return State(float(self.r[-1]), float(self.n[-1]))

    def state_at(self, t: float) -> State:
        """Piecewise-linear interpolation between stored samples."""
        return State(
            float(np.interp(t, self.t, self.r)),
            float(np.interp(t, self.t, self.n)),
        )


def integrate(
    params: ModelParams,
    initial: State,
    t_end: float,
    dt: float = 1e-3,
    sample_every: int | None = None,
) -> Trajectory:
    """Integrate from ``initial`` over [0, t_end] with classical RK4.

    The step actually used is t_end/round(t_end/dt) so the horizon is hit
    exactly.  Samples are kept every ``sample_every`` steps (plus the final
    state); when omitted, the stride is chosen to keep at most
    MAX_STORED_SAMPLES points.

    Tiny negative overshoot (>= -1e-9) is clamped to zero and counted in
    ``clamp_count``; anything below that limit raises, as does a non-finite
    state, naming the first bad step.
    """
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

    n_steps = max(1, round(t_end / dt))
    h = t_end / n_steps
    if sample_every is None:
        sample_every = max(1, math.ceil(n_steps / MAX_STORED_SAMPLES))
    if not 1 <= sample_every < 2**63:
        raise ValueError(f"sample_every must be in [1, 2**63), got {sample_every}")

    rk4 = _compiled_rk4() or _rk4_python
    return _integrate(rk4, params, r0, n0, h, n_steps, sample_every, OVERSHOOT_LIMIT)


def _integrate(rk4: Callable, params: ModelParams, r0: float, n0: float, h: float,
               n_steps: int, sample_every: int, overshoot_limit: float) -> Trajectory:
    """The trajectory of ``n_steps`` steps of size ``h`` from (r0, n0) run by
    ``rk4`` (``_rk4_python`` or the compiled loop), or its failed step's error."""
    (_kept, clamps, fail, step, value), (t, r, n) = _outcome(
        rk4, params, r0, n0, h, n_steps, sample_every, overshoot_limit)
    if fail:
        error, message = _FAILURES[fail]
        raise error(message.format(step=step, t=step * h, value=value))
    return Trajectory(t, r, n, params, h, sample_every, clamps)


# By the RK4 loops' fail code, the error of a failed step and its message.
_FAILURES = (
    None,
    (IntegrationBlowupError, "non-finite state at step {step} (t = {t:.6g})"),
    (NegativeOvershootError, "r = {value:.6g} below overshoot limit at step {step} (t = {t:.6g})"),
    (NegativeOvershootError, "n = {value:.6g} below overshoot limit at step {step} (t = {t:.6g})"),
)


def _outcome(rk4: Callable, params: ModelParams, r0: float, n0: float, h: float,
             n_steps: int, sample_every: int, overshoot_limit: float) -> tuple[tuple, np.ndarray]:
    """What ``rk4`` returns for ``n_steps`` steps of size ``h`` from
    (r0, n0), and the times, r and n of the samples it kept, as rows."""
    # The start, every stride, and the terminal state even off-stride.
    samples = np.empty((3, -(-n_steps // sample_every) + 1))
    samples[:, 0] = 0.0, r0, n0
    result = rk4(params, h, n_steps, sample_every, overshoot_limit, *samples)
    return result, samples[:, :result[0]]


def _rk4_python(params: ModelParams, h: float, n_steps: int, sample_every: int,
                overshoot_limit: float, ts: np.ndarray, rs: np.ndarray,
                ns: np.ndarray) -> tuple[int, int, int, int, float]:
    """``spikesim_rk4`` of ``_kernel.c`` from (rs[0], ns[0]), statement for
    statement.  It stores the samples in ``ts``, ``rs`` and ``ns`` and returns
    how many it stored (the start included), the clamp count, the fail code
    (an index into ``_FAILURES``, 0 when no step failed), the step it ended at
    (n_steps + 1 when none failed) and the component below the limit, or 0.0."""
    r, n = float(rs[0]), float(ns[0])
    clamps, kept = 0, 1
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
            return kept, clamps, 1, step, 0.0
        if r < 0.0:
            if r < overshoot_limit:
                return kept, clamps, 2, step, r
            r = 0.0
            clamps += 1
        if n < 0.0:
            if n < overshoot_limit:
                return kept, clamps, 3, step, n
            n = 0.0
            clamps += 1

        if step % sample_every == 0 or step == n_steps:
            ts[kept], rs[kept], ns[kept] = step * h, r, n
            kept += 1
    return kept, clamps, 0, n_steps + 1, 0.0


# The runs the compiled loop must reproduce ``_rk4_python`` on: one that clamps
# r to 0 on many steps, its terminal sample off-stride, and one that clamps
# twice and then fails on r just below the overshoot limit at step 3.
_PROBES = ((ModelParams(alpha=7.0, beta=0.05, gamma=0.01, p=0.0), 0.0, 1e-10, 1e-2, 500, 7),
           (ModelParams(alpha=7.0, beta=1.0, gamma=0.01, p=0.0), 0.0, 1e-10, 1e-2, 50, 1))


def _compiled_rk4() -> Callable | None:
    """The checked library's RK4 loop; None (``_rk4_python`` runs) where it
    has none."""
    from . import _compiled

    return getattr(_compiled.library(), "rk4", None)


def _agrees(rk4: Callable) -> bool:
    """Whether ``rk4``, a build's loop, gives ``_rk4_python``'s whole outcome
    on the probes, a failed step's included: a fused or reordered
    floating-point operation would move the path, or a failure."""
    def outcome(loop, probe):
        result, samples = _outcome(loop, *probe, OVERSHOOT_LIMIT)
        return result, samples.tobytes()

    return all(outcome(rk4, probe) == outcome(_rk4_python, probe) for probe in _PROBES)
