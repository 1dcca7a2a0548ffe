"""Fixed-step RK4 integration of the deterministic rate equations.

A fixed step keeps trajectories reproducible and makes time-alignment with
jump paths trivial; the system is two-dimensional and non-stiff at the
parameter sets of interest, so adaptivity buys nothing.
"""

import math
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
    if r0 < 0 or n0 < 0:
        raise ValueError(f"initial state must be non-negative, got ({r0}, {n0})")
    if not (t_end > 0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if not (0 < dt <= t_end):
        raise ValueError(f"dt must satisfy 0 < dt <= t_end, got {dt}")

    n_steps = max(1, round(t_end / dt))
    h = t_end / n_steps
    if sample_every is None:
        sample_every = max(1, math.ceil(n_steps / MAX_STORED_SAMPLES))
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    n_kept = n_steps // sample_every + 1
    if n_steps % sample_every:
        n_kept += 1  # keep the terminal state even off-stride
    ts = np.empty(n_kept)
    rs = np.empty(n_kept)
    ns = np.empty(n_kept)
    ts[0], rs[0], ns[0] = 0.0, r0, n0

    r, n = r0, n0
    clamps = 0
    kept = 1
    half = 0.5 * h
    sixth = h / 6.0
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
            raise IntegrationBlowupError(
                f"non-finite state at step {step} (t = {step * h:.6g})"
            )
        if r < 0.0:
            r = _floor_component(r, "r", step, step * h)
            clamps += 1
        if n < 0.0:
            n = _floor_component(n, "n", step, step * h)
            clamps += 1

        if step % sample_every == 0 or step == n_steps:
            ts[kept], rs[kept], ns[kept] = step * h, r, n
            kept += 1

    return Trajectory(
        t=ts[:kept],
        r=rs[:kept],
        n=ns[:kept],
        params=params,
        dt=h,
        sample_every=sample_every,
        clamp_count=clamps,
    )


def _floor_component(value: float, name: str, step: int, t: float) -> float:
    if value < OVERSHOOT_LIMIT:
        raise NegativeOvershootError(
            f"{name} = {value:.6g} below overshoot limit at step {step} (t = {t:.6g})"
        )
    return 0.0
