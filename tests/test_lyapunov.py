import numpy as np
import pytest

import spikesim.lyapunov
from spikesim import (
    LatticeState,
    ModelParams,
    ProcessKind,
    build_meanfield,
    build_oneunit,
    drift_closed_form,
    drift_via_generator,
    ergodicity_condition,
    in_exceptional_set,
    lyapunov_value,
    scan_drift_condition,
    simulate,
    stationary_point,
)
from spikesim.lyapunov import membership_bound


class TestLyapunovValue:
    def test_zero_at_origin(self, fig1_params):
        spec = build_oneunit(fig1_params)
        assert lyapunov_value(spec.lattice_state(0.0, 0.0), 100.0) == 0.0

    def test_example_value(self, fig1_params):
        spec = build_oneunit(fig1_params)
        s = spec.lattice_state(1.0, 2.0)
        assert lyapunov_value(s, 100.0) == pytest.approx(103.0)

    def test_increasing_in_each_coordinate(self, fig1_params):
        spec = build_oneunit(fig1_params)
        base = lyapunov_value(spec.lattice_state(1.0, 5.0), 100.0)
        assert lyapunov_value(spec.lattice_state(1.01, 5.0), 100.0) > base
        assert lyapunov_value(spec.lattice_state(1.0, 6.0), 100.0) > base


class TestDrift:
    def test_oneunit_origin(self, fig1_params):
        spec = build_oneunit(fig1_params)
        s = spec.lattice_state(0.0, 0.0)
        value = drift_closed_form(ProcessKind.ONEUNIT, fig1_params, s.r, s.n)
        assert value == pytest.approx(7.07, abs=1e-12)

    def test_oneunit_flat_in_y_when_gamma_equals_beta(self):
        params = ModelParams(alpha=0.01, beta=2.0, gamma=2.0, p=7.0)
        spec = build_oneunit(params)
        expected = (params.gamma + 1.0) / params.gamma * params.p
        for y in (0.0, 1.0, 5.0, 40.0):
            s = spec.lattice_state(0.0, y)
            value = drift_closed_form(ProcessKind.ONEUNIT, params, s.r, s.n)
            assert value == pytest.approx(expected)

    def test_meanfield_linear_decrease_in_y(self, fig1_params):
        r_star = stationary_point(fig1_params).r
        g, b = fig1_params.gamma, fig1_params.beta
        slope = -(g / b + r_star / 2.0 - 1.0) / g
        d1 = drift_closed_form(ProcessKind.MEANFIELD, fig1_params, 0.0, 100.0)
        d2 = drift_closed_form(ProcessKind.MEANFIELD, fig1_params, 0.0, 200.0)
        assert (d2 - d1) / 100.0 == pytest.approx(slope, rel=1e-12)
        assert d2 < d1 < 0

    @pytest.mark.parametrize("kind,builder", [
        (ProcessKind.ONEUNIT, build_oneunit),
        (ProcessKind.MEANFIELD, build_meanfield),
    ])
    def test_closed_form_agrees_with_generator(self, fig1_params, kind, builder):
        spec = builder(fig1_params)
        kr_lo = 1 if kind is ProcessKind.MEANFIELD else 0  # skip censored edge
        for kr in range(kr_lo, kr_lo + 50):
            for kn in range(0, 50):
                s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
                closed = drift_closed_form(kind, fig1_params, s.r, s.n)
                applied = drift_via_generator(spec, s)
                assert applied == pytest.approx(float(closed), abs=1e-10)

    def test_meanfield_censored_edge_drift_is_larger(self, fig1_params):
        # Censoring removes a negative f-increment, so the true chain drift
        # at kr = 0 exceeds the closed form.
        spec = build_meanfield(fig1_params)
        s = spec.lattice_state(0.0, 5.0)
        closed = float(drift_closed_form(ProcessKind.MEANFIELD, fig1_params, 0.0, 5.0))
        assert drift_via_generator(spec, s) > closed


@pytest.mark.parametrize("kind", [ProcessKind.ONEUNIT, ProcessKind.MEANFIELD])
@pytest.mark.parametrize("params", [
    ModelParams(0.01, 1.0, 100.0, 7.0),
    ModelParams(0.01, 1.0, 2.0, 7.0),
    ModelParams(0.3, 0.7, 3.0, 2.5),
    ModelParams(0.0, 1.3, 7.0, 0.4),
], ids=["gamma100", "gamma2", "gamma3_beta0.7", "alpha0"])
def test_scan_grid_equals_drift_via_generator(monkeypatch, kind, params):
    # The scan sums the generator over the whole box at once; each state of
    # it, the kr = 0 and kn = 0 edges included, must equal the sum at that
    # state alone.
    grids = []
    box_sum = spikesim.lyapunov._generator_sum
    monkeypatch.setattr(spikesim.lyapunov, "_generator_sum",
                        lambda *args: grids.append(box_sum(*args)) or grids[-1])
    scan_drift_condition(kind, params, epsilon=0.1, scan_box=(12, 9))
    monkeypatch.undo()
    (grid,) = grids
    spec = build_oneunit(params) if kind is ProcessKind.ONEUNIT else build_meanfield(params)
    assert grid.shape == (13, 10)
    for kr in range(13):
        for kn in range(10):
            s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
            assert grid[kr, kn] == drift_via_generator(spec, s)


class TestErgodicityCondition:
    def test_meanfield_fig1_margin(self, fig1_params):
        check = ergodicity_condition(ProcessKind.MEANFIELD, fig1_params)
        r_star = stationary_point(fig1_params).r
        assert check.holds
        assert check.margin == pytest.approx(100.0 + r_star / 2.0 - 1.0)
        assert check.margin == pytest.approx(99.9986, abs=1e-4)

    def test_oneunit_holds_inclusive(self):
        assert ergodicity_condition(
            ProcessKind.ONEUNIT, ModelParams(0.01, 1.0, 2.0, 7.0)
        ).holds
        boundary = ergodicity_condition(
            ProcessKind.ONEUNIT, ModelParams(0.01, 2.0, 2.0, 7.0)
        )
        assert boundary.holds and boundary.margin == 0.0

    def test_oneunit_fails_below_beta(self):
        check = ergodicity_condition(
            ProcessKind.ONEUNIT, ModelParams(0.01, 1.0, 0.5, 7.0)
        )
        assert not check.holds
        assert check.margin == pytest.approx(-0.5)


class TestScan:
    def test_oneunit_fig1_scan_passes(self, fig1_params):
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, fig1_params, epsilon=0.1, scan_box=(400, 400)
        )
        assert report.passed
        assert not report.inconclusive
        assert report.violations == []
        bound = membership_bound(fig1_params, 0.1)
        a, b, g = fig1_params.alpha, fig1_params.beta, fig1_params.gamma
        for s in report.set_A:
            x, y = s.r, s.n
            assert x * y + a * x + (g / b - 1.0) * y <= bound
        # The set is wide along y = 0 but shallow in y.
        assert report.a_extent[0] == 400  # truncated by the box
        assert report.a_extent[1] < 10
        assert not report.contained

    def test_meanfield_fig1_scan_passes(self, fig1_params):
        report = scan_drift_condition(
            ProcessKind.MEANFIELD, fig1_params, epsilon=0.1, scan_box=(400, 400)
        )
        assert report.passed and report.violations == []

    def test_drift_below_minus_epsilon_in_4x_extent_box(self, fig1_params):
        epsilon = 0.1
        first = scan_drift_condition(
            ProcessKind.ONEUNIT, fig1_params, epsilon=epsilon, scan_box=(400, 400)
        )
        kr_box = 4 * max(first.a_extent[0], 1)
        kn_box = 4 * max(first.a_extent[1], 1)
        second = scan_drift_condition(
            ProcessKind.ONEUNIT, fig1_params, epsilon=epsilon,
            scan_box=(kr_box, kn_box),
        )
        assert second.passed and second.violations == []

    def test_no_pumping_set_shrinks_to_level_set(self):
        params = ModelParams(alpha=0.5, beta=1.0, gamma=2.0, p=0.0)
        epsilon = 0.1
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, params, epsilon=epsilon, scan_box=(50, 50)
        )
        assert report.passed
        bound = params.gamma * epsilon
        for s in report.set_A:
            lhs = s.r * s.n + params.alpha * s.r + (params.gamma / params.beta - 1) * s.n
            assert lhs <= bound + 1e-12

    def test_origin_always_in_set(self, fig1_params):
        big_eps = 100.0 * (fig1_params.gamma + 1) / fig1_params.gamma * fig1_params.p
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, fig1_params, epsilon=big_eps, scan_box=(50, 50)
        )
        assert any(s.kr == 0 and s.kn == 0 for s in report.set_A)

    def test_inconclusive_when_condition_fails(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=0.5, p=7.0)
        report = scan_drift_condition(ProcessKind.ONEUNIT, params, epsilon=0.1)
        assert report.inconclusive and not report.passed

    def test_contained_scan(self):
        # Large alpha keeps the set small enough to enclose completely.
        params = ModelParams(alpha=5.0, beta=1.0, gamma=10.0, p=2.0)
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, params, epsilon=0.1, scan_box=(500, 40),
        )
        assert report.contained and report.passed
        assert report.a_extent[0] < 500 and report.a_extent[1] < 40

    def test_auto_box(self, fig1_params):
        report = scan_drift_condition(ProcessKind.MEANFIELD, fig1_params, epsilon=0.1)
        assert report.passed
        kr_max, kn_max = report.scan_box
        assert kr_max >= report.a_extent[0]
        assert kn_max >= 4 * report.a_extent[1] - 4

    def test_report_serializes(self, fig1_params):
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, fig1_params, epsilon=0.1, scan_box=(40, 40)
        )
        d = report.to_dict()
        assert d["mode"] == "oneunit"
        assert d["epsilon"] == 0.1
        assert d["scan_box"] == [40, 40]
        assert d["violations"] == []
        assert all(len(pair) == 2 for pair in d["set_A"])


class TestEmpiricalRecurrence:
    def test_oneunit_returns_to_exceptional_set(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=1_000_000,
                        seed=31)
        x = traj.krs / fig1_params.gamma
        y = traj.kns.astype(float)
        inside = in_exceptional_set(ProcessKind.ONEUNIT, fig1_params, x, y, 0.1)
        entries = int(np.sum(inside[1:] & ~inside[:-1]))
        assert entries >= 100
