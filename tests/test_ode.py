import functools
import math

import numpy as np
import pytest

from spikesim import (
    IntegrationBlowupError,
    ModelParams,
    State,
    eigenvalues,
    integrate,
    stationary_point,
)
from spikesim import ode
from spikesim.ode import (
    OVERSHOOT_LIMIT,
    NegativeOvershootError,
    _integrate,
    _outcome,
    _rk4_python,
)

# The RK4 loops: _rk4_python and, where the library builds and passes its
# check, the library's loop.
RK4_LOOPS = [loop for loop in (_rk4_python, ode._compiled_rk4()) if loop is not None]


def _loop_name(loop) -> str:
    return "python" if loop is _rk4_python else "compiled"


class TestIntegrate:
    def test_rejects_bad_inputs(self, fig1_params):
        with pytest.raises(ValueError):
            integrate(fig1_params, State(-0.1, 0.0), t_end=1.0)
        with pytest.raises(ValueError):
            integrate(fig1_params, State(0.1, 0.1), t_end=0.0)
        with pytest.raises(ValueError):
            integrate(fig1_params, State(0.1, 0.1), t_end=1.0, dt=2.0)

    def test_first_sample_at_zero_times_increasing(self, fig1_params):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=5.0, dt=1e-2)
        assert traj.t[0] == 0.0
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[-1] == pytest.approx(5.0, abs=1e-12)

    def test_stays_at_fixed_point(self, fig1_params):
        fp = stationary_point(fig1_params)
        traj = integrate(fig1_params, fp, t_end=50.0, dt=1e-2)
        assert np.max(np.abs(traj.r - fp.r)) < 1e-9
        assert np.max(np.abs(traj.n - fp.n)) < 1e-9

    def test_sample_stride(self, fig1_params):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=1.0, dt=1e-3,
                         sample_every=100)
        assert len(traj.t) == 11
        assert traj.t[1] == pytest.approx(0.1)

    def test_off_stride_keeps_terminal_state(self, fig1_params):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=1.0, dt=1e-3,
                         sample_every=300)
        assert traj.t[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("loop", RK4_LOOPS, ids=_loop_name)
    @pytest.mark.parametrize("run", [{"dt": 0.1, "sample_every": 2**64},
                                     {"dt": 0.1, "sample_every": 2**64 + 3},
                                     {"dt": 0.1, "sample_every": 2**63},
                                     {"dt": 1e-300},
                                     {"dt": 1e-300, "t_end": 1e10}],
                             ids=["stride 2^64", "stride 2^64 + 3", "stride 2^63",
                                  "1e300 steps", "steps past the largest float"])
    def test_counts_past_int64_are_rejected(self, fig1_params, monkeypatch, loop, run):
        # Both loops count in int64, where the compiled one would wrap them.
        monkeypatch.setattr(ode, "_compiled_rk4", lambda: loop)
        run = {"t_end": 1.0, **run}
        with pytest.raises(ValueError, match="below 2\\*\\*63|in \\[1, 2\\*\\*63\\)"):
            integrate(fig1_params, State(0.01, 0.01), **run)

    @pytest.mark.parametrize("loop", RK4_LOOPS, ids=_loop_name)
    def test_the_largest_int64_stride_keeps_start_and_end(self, fig1_params, monkeypatch, loop):
        monkeypatch.setattr(ode, "_compiled_rk4", lambda: loop)
        traj = integrate(fig1_params, State(0.01, 0.01), 1.0, dt=0.1, sample_every=2**63 - 1)
        assert traj.t.tolist() == [0.0, 1.0]

    def test_default_stride_caps_storage(self, fig1_params):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=500.0, dt=1e-3)
        assert len(traj.t) <= 200_002

    def test_converges_to_stationary_point(self, fig1_params, fig2_params):
        for params in (fig1_params, fig2_params):
            fp = stationary_point(params)
            traj = integrate(params, State(0.01, 0.01), t_end=400.0, dt=1e-2)
            final = traj.final_state()
            assert abs(final.r - fp.r) < 1e-2
            assert abs(final.n - fp.n) < 1e-2


class TestFocusOscillations:
    def test_photon_density_oscillates_and_decays(self, fig1_params):
        # Focus regime: n overshoots its stationary value and rings down.
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=200.0, dt=1e-3)
        n_star = stationary_point(fig1_params).n
        crossings = np.sum(np.diff(np.sign(traj.n - n_star)) != 0)
        assert crossings >= 4
        assert traj.n.max() > 2 * n_star  # the leading spike

    def test_late_time_peak_contraction(self, fig1_params):
        traj = integrate(fig1_params, State(0.01, 0.01), t_end=600.0, dt=1e-2)
        fp = stationary_point(fig1_params)
        onset = 10.0 / abs(eigenvalues(fig1_params)[0].real)
        mask = traj.t > onset
        dist = np.maximum(np.abs(traj.r - fp.r), np.abs(traj.n - fp.n))[mask]
        interior = (dist[1:-1] > dist[:-2]) & (dist[1:-1] >= dist[2:])
        peaks = dist[1:-1][interior]
        assert len(peaks) >= 3
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_node_regime_monotone_contraction(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=1.0, p=7.0)
        traj = integrate(params, State(0.01, 0.01), t_end=20.0, dt=1e-3)
        fp = stationary_point(params)
        onset = 10.0 / abs(eigenvalues(params)[0].real)
        mask = traj.t > onset
        dist = np.maximum(np.abs(traj.r - fp.r), np.abs(traj.n - fp.n))[mask]
        assert np.all(np.diff(dist) <= 0)


class TestConvergenceOrder:
    def test_fourth_order_step_halving(self, fig1_params):
        init = State(0.01, 0.01)

        def terminal(dt):
            traj = integrate(fig1_params, init, t_end=10.0, dt=dt,
                             sample_every=10**9)
            return np.array([traj.r[-1], traj.n[-1]])

        ref = terminal(0.1 / 8)
        err = np.max(np.abs(terminal(0.1) - ref))
        err_half = np.max(np.abs(terminal(0.05) - ref))
        assert 12.0 <= err / err_half <= 20.0


class TestSafety:
    def test_non_negative_and_no_clamps_on_figure_sets(self, fig1_params, fig2_params):
        for params in (fig1_params, fig2_params):
            traj = integrate(params, State(0.01, 0.01), t_end=200.0, dt=1e-3)
            assert traj.clamp_count == 0
            assert np.all(traj.r >= 0) and np.all(traj.n >= 0)

    def test_blowup_error_names_step(self, fig1_params):
        # The quadratic coupling overflows for astronomically large states.
        with pytest.raises(IntegrationBlowupError, match="step 1"):
            integrate(fig1_params, State(1e200, 1e200), t_end=1.0, dt=0.5)

    def test_unstable_step_fails_hard(self):
        # A step far beyond the stability limit of the fast component drives
        # a component strongly negative; that must not be clamped away.
        params = ModelParams(alpha=0.01, beta=1.0, gamma=1e-3, p=7.0)
        with pytest.raises(NegativeOvershootError):
            integrate(params, State(0.01, 0.01), t_end=100.0, dt=0.1)

    def test_floor_policy(self):
        # After two clamps, step 3 of this run takes r to -1.00704e-9: a limit
        # just below that clamps it to 0, one just above fails the step.
        run = (ModelParams(alpha=7.0, beta=1.0, gamma=0.01, p=0.0), 0.0, 1e-10, 1e-2, 3, 1)
        r3 = -1.0070429206373245e-09
        assert r3 < OVERSHOOT_LIMIT
        for loop in RK4_LOOPS:
            traj = _integrate(loop, *run, math.nextafter(r3, -math.inf))
            assert traj.clamp_count == 3 and traj.r[-1] == 0.0
            with pytest.raises(NegativeOvershootError) as exc:
                _integrate(loop, *run, math.nextafter(r3, math.inf))
            assert str(exc.value) == "r = -1.00704e-09 below overshoot limit at step 3 (t = 0.03)"


def _altered(index: int, change):
    """``_rk4_python`` with entry ``index`` of a failed run's result changed."""
    def loop(*args):
        result = list(_rk4_python(*args))
        if result[2]:
            result[index] = change(result[index])
        return tuple(result)
    return loop


class TestCompiledCheck:
    """``ode._agrees`` passes a build's RK4 loop only where it gives
    ``_rk4_python``'s whole outcome, a failed step's included."""

    def test_probes_clamp_and_fail(self):
        (clamped, _), (failed, _) = (_outcome(_rk4_python, *probe, OVERSHOOT_LIMIT)
                                     for probe in ode._PROBES)
        assert clamped[1] > 0 and clamped[2] == 0
        assert failed[2] == 2 and failed[3] == 3

    def test_keeps_a_loop_that_reproduces_the_python_loop(self):
        assert ode._agrees(functools.partial(_rk4_python))

    @pytest.mark.parametrize("index, change", [
        (2, lambda fail: 3),
        (3, lambda step: step + 1),
        (4, lambda value: math.nextafter(value, 0.0)),
    ], ids=["code", "step", "value"])
    def test_refuses_a_loop_that_fails_differently(self, index, change):
        assert not ode._agrees(_altered(index, change))
