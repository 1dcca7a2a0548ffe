import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
import test_drift_bytes

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
    scan_drift_condition,
    simulate,
    stationary_point,
)
from spikesim import _compiled
from spikesim.lyapunov import AUTO_BOX_CAP, _analytic_extent, membership_bound


@pytest.fixture
def python_scan(monkeypatch):
    """The numpy scan, the reference, in place of the compiled one."""
    monkeypatch.setattr(spikesim.lyapunov, "_compiled_scan", lambda: None)


@pytest.fixture(params=["compiled", "python"])
def each_scan(request, monkeypatch):
    """The compiled scan, then the numpy scan."""
    if request.param == "python":
        monkeypatch.setattr(spikesim.lyapunov, "_compiled_scan", lambda: None)
    elif spikesim.lyapunov._compiled_scan() is None:
        pytest.skip("no compiled scan here")


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
def test_scan_grid_equals_drift_via_generator(monkeypatch, python_scan, kind, params):
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


def _block_grids(monkeypatch, kind, params, epsilon, box) -> list[np.ndarray]:
    """The generator-sum grids of each block of rows a scan works on."""
    grids = []
    box_sum = spikesim.lyapunov._generator_sum
    with monkeypatch.context() as patch:
        patch.setattr(spikesim.lyapunov, "_generator_sum",
                      lambda *args: grids.append(box_sum(*args)) or grids[-1])
        scan_drift_condition(kind, params, epsilon=epsilon, scan_box=box)
    return grids


@pytest.mark.parametrize("kind", [ProcessKind.ONEUNIT, ProcessKind.MEANFIELD])
@pytest.mark.parametrize("params", [
    ModelParams(0.01, 1.0, 100.0, 7.0),
    ModelParams(0.01, 1.0, 2.0, 7.0),
    ModelParams(0.3, 0.7, 3.0, 2.5),
    ModelParams(0.0, 1.3, 7.0, 0.4),
], ids=["gamma100", "gamma2", "gamma3_beta0.7", "alpha0"])
def test_row_blocks_stitch_to_drift_via_generator(monkeypatch, python_scan, kind, params):
    # Blocks of 5 rows of a 13 x 10 box: only the first holds the censored
    # kr = 0 edge, and each block's grid starts at its own first kr.
    monkeypatch.setattr(spikesim.lyapunov, "_BLOCK_ELEMENTS", 5 * 10)
    grids = _block_grids(monkeypatch, kind, params, 0.1, (12, 9))
    assert [grid.shape for grid in grids] == [(5, 10), (5, 10), (3, 10)]
    grid = np.vstack(grids)
    spec = build_oneunit(params) if kind is ProcessKind.ONEUNIT else build_meanfield(params)
    for kr in range(13):
        for kn in range(10):
            s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
            assert grid[kr, kn] == drift_via_generator(spec, s)


@pytest.mark.parametrize("rows", [1, 7, "whole box"])
@pytest.mark.parametrize("case", list(test_drift_bytes.SCANS))
def test_block_edges_do_not_change_the_report(monkeypatch, python_scan, case, rows):
    kind, params, epsilon, box = test_drift_bytes.SCANS[case]
    report = scan_drift_condition(kind, params, epsilon, box)
    kr_max, kn_max = report.scan_box
    rows = kr_max + 2 if rows == "whole box" else rows
    monkeypatch.setattr(spikesim.lyapunov, "_BLOCK_ELEMENTS", rows * (kn_max + 1))
    assert test_drift_bytes.scan_digest(kind, params, epsilon, box) == \
        test_drift_bytes.DIGESTS[case]
    # The blocks are as many as the rows ask for; an inconclusive scan has none.
    grids = _block_grids(monkeypatch, kind, params, epsilon, box)
    assert len(grids) == (0 if report.inconclusive else math.ceil((kr_max + 1) / rows))


@pytest.mark.parametrize("rows", [1, 7, "whole box"])
@pytest.mark.parametrize("case", list(test_drift_bytes.SCANS))
def test_compiled_block_edges_do_not_change_the_report(monkeypatch, case, rows):
    scan = spikesim.lyapunov._compiled_scan()
    if scan is None:
        pytest.skip("no compiled scan here")
    kind, params, epsilon, box = test_drift_bytes.SCANS[case]
    report = scan_drift_condition(kind, params, epsilon, box)
    kr_max, kn_max = report.scan_box
    rows = kr_max + 2 if rows == "whole box" else rows
    monkeypatch.setattr(spikesim.lyapunov, "_BLOCK_ELEMENTS", rows * (kn_max + 1))
    # Each call of the C scan is one block of rows [k0, k1).
    edges, block = [], scan.args[0]
    spy = functools.partial(_compiled.drift_scan,
                            lambda *args: edges.append(args[2:]) or block(*args))
    monkeypatch.setattr(spikesim.lyapunov, "_compiled_scan", lambda: spy)
    assert test_drift_bytes.scan_digest(kind, params, epsilon, box) == \
        test_drift_bytes.DIGESTS[case]
    assert edges == ([] if report.inconclusive else
                     [(k0, min(k0 + rows, kr_max + 1)) for k0 in range(0, kr_max + 1, rows)])


@pytest.mark.parametrize("case", list(test_drift_bytes.SCANS))
def test_python_scan_report_bytes_are_frozen(python_scan, case):
    test_drift_bytes.test_scan_report_bytes_are_frozen(case)


@pytest.mark.parametrize("probe", list(spikesim.lyapunov._PROBES))
def test_the_scan_probes_compare_every_drift(probe):
    # The compiled scan is checked on these probes when the library is
    # built: every state is in A or a violation, so every drift is compared.
    decay, bound, rows = probe
    spec = spikesim.lyapunov._probe_spec()
    outcome = spikesim.lyapunov._scan_python(spec, spikesim.lyapunov._f_weights(spec), decay,
                                             bound, math.inf, (13, 11), rows)
    assert len(outcome[0]) + len(outcome[1]) == 14 * 12
    assert len(outcome[0]) and len(outcome[1])


def test_the_scan_check_refuses_a_drift_one_bit_off():
    def off(*args):
        set_a, bad, drift = spikesim.lyapunov._scan_python(*args)
        drift[-1] = np.nextafter(drift[-1], math.inf)
        return set_a, bad, drift

    assert spikesim.lyapunov._agrees(spikesim.lyapunov._scan_python)
    assert not spikesim.lyapunov._agrees(off)


def test_the_compiled_scan_runs_wherever_the_library_builds():
    # A library that builds but computes differently is refused whole at its
    # check, and the numpy scan runs; that must not pass unnoticed.
    assert (spikesim.lyapunov._compiled_scan() is None) == (_compiled.library() is None)
    assert not (_compiled.cache_dir() / f"_kernel-{_compiled.build_key()}.refused").exists()


@pytest.mark.parametrize("kind", [ProcessKind.ONEUNIT, ProcessKind.MEANFIELD])
def test_scan_memory_does_not_grow_with_the_box(fig1_params, kind):
    # numpy reports its buffers to tracemalloc.  Whole-box grids of a
    # 2000 x 2000 scan took 68 MB; a scan holds one block's grids, and
    # set_A twice at most (its blocks and their concatenation).
    scan_drift_condition(kind, fig1_params, epsilon=0.1, scan_box=(20, 20))
    tracemalloc.start()
    try:
        report = scan_drift_condition(kind, fig1_params, epsilon=0.1, scan_box=(2000, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.set_A) > 10_000
    assert peak < 2 * report.set_A.nbytes + 4_000_000


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
        x, y = report.set_A[:, 0] / g, report.set_A[:, 1].astype(float)
        assert np.all(x * y + a * x + (g / b - 1.0) * y <= bound)
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
        x, y = report.set_A[:, 0] / params.gamma, report.set_A[:, 1].astype(float)
        lhs = x * y + params.alpha * x + (params.gamma / params.beta - 1) * y
        assert np.all(lhs <= bound + 1e-12)

    def test_origin_always_in_set(self, fig1_params):
        big_eps = 100.0 * (fig1_params.gamma + 1) / fig1_params.gamma * fig1_params.p
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, fig1_params, epsilon=big_eps, scan_box=(50, 50)
        )
        assert [0, 0] in report.set_A.tolist()

    def test_inconclusive_when_condition_fails(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=0.5, p=7.0)
        report = scan_drift_condition(ProcessKind.ONEUNIT, params, epsilon=0.1)
        assert report.inconclusive and not report.passed
        assert report.scan_box == (0, 0)  # nothing scanned

    def test_inconclusive_scan_checks_an_explicit_box(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=0.5, p=7.0)
        with pytest.raises(ValueError, match="scan box must be at least 1x1"):
            scan_drift_condition(ProcessKind.ONEUNIT, params, scan_box=(0, 3))
        report = scan_drift_condition(ProcessKind.ONEUNIT, params, scan_box=(1, 3))
        assert report.inconclusive and report.scan_box == (1, 3)

    def test_contained_scan(self):
        # Large alpha keeps the set small enough to enclose completely.
        params = ModelParams(alpha=5.0, beta=1.0, gamma=10.0, p=2.0)
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, params, epsilon=0.1, scan_box=(500, 40),
        )
        assert report.contained and report.passed
        assert report.a_extent[0] < 500 and report.a_extent[1] < 40

    @pytest.mark.parametrize("box, contained", [
        ((46, 40), False), ((47, 40), True), ((500, 2), False), ((500, 3), True),
    ])
    def test_contained_only_past_the_analytic_extent(self, box, contained):
        # A reaches index 46 in kr and 2 in kn: a box edge on A's extent
        # does not hold it strictly inside, one step past it does.
        params = ModelParams(alpha=5.0, beta=1.0, gamma=10.0, p=2.0)
        report = scan_drift_condition(ProcessKind.ONEUNIT, params, epsilon=0.1, scan_box=box)
        assert report.analytic_extent == (46, 2)
        assert report.contained is contained

    def test_auto_box(self, fig1_params):
        report = scan_drift_condition(ProcessKind.MEANFIELD, fig1_params, epsilon=0.1)
        assert report.passed
        kr_max, kn_max = report.scan_box
        assert kr_max >= report.a_extent[0]
        assert kn_max >= 4 * report.a_extent[1] - 4

    @pytest.mark.parametrize("kind, params, epsilon, extent", [
        (ProcessKind.ONEUNIT, ModelParams(alpha=1e-320, beta=1.0, gamma=100.0, p=7.0), 0.1,
         (None, 7)),
        (ProcessKind.ONEUNIT, ModelParams(alpha=0.01, beta=1.0, gamma=1e300, p=7.0), 0.1,
         (None, 7)),
        (ProcessKind.MEANFIELD, ModelParams(alpha=0.01, beta=1.0, gamma=1e300, p=7.0), 0.1,
         (None, 7)),
        (ProcessKind.ONEUNIT, ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0), 1e308,
         (None, None)),
        (ProcessKind.MEANFIELD, ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0), 1e308,
         (None, None)),
    ])
    def test_extent_that_overflows_is_unbounded(self, kind, params, epsilon, extent):
        # The extent along kr (and at epsilon 1e308 along kn too) overflows
        # to inf: that axis is unbounded, as when its decay coefficient is 0.
        assert _analytic_extent(kind, params, epsilon) == extent

    def test_auto_box_caps_an_overflowing_extent(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=1e300, p=7.0)
        report = scan_drift_condition(ProcessKind.MEANFIELD, params, epsilon=0.1)
        assert report.analytic_extent == (None, 7)
        assert report.scan_box == (AUTO_BOX_CAP, 28)
        assert report.passed and not report.contained

    @pytest.mark.parametrize("kind, first, drift", [
        (ProcessKind.ONEUNIT, (0, 4), "nan"),
        (ProcessKind.MEANFIELD, (0, 1), "inf"),
    ])
    def test_a_drift_that_is_not_finite_is_an_error(self, each_scan, kind, first, drift):
        # beta and gamma near the smallest normal float: the rates overflow,
        # and the drift is NaN (or inf) at most states of the box.  A NaN
        # is not <= -epsilon, so it is a violation, and the report names
        # the first state in row-major order whose drift is not finite.
        params = ModelParams(alpha=0.01, beta=1e-308, gamma=3e-308, p=7.0)
        with pytest.raises(ValueError, match=re.escape(
                f"the drift at (kr, kn) = {first} is {drift}, not a finite float")):
            scan_drift_condition(kind, params, epsilon=0.1, scan_box=(5, 5))

    def test_a_drift_of_minus_inf_passes(self, each_scan):
        # The leak rate n / beta overflows at kn >= 2: the drift is -inf
        # there, which is <= -epsilon.
        params = ModelParams(alpha=0.01, beta=1e-308, gamma=1.0, p=7.0)
        report = scan_drift_condition(ProcessKind.ONEUNIT, params, epsilon=0.1,
                                      scan_box=(5, 5))
        spec = build_oneunit(params)
        with np.errstate(over="ignore"):
            assert drift_via_generator(spec, LatticeState(1, 2, spec.r_unit,
                                                          spec.n_unit)) == -math.inf
        assert report.passed and report.violations == []

    def test_report_serializes(self, fig1_params):
        report = scan_drift_condition(
            ProcessKind.ONEUNIT, fig1_params, epsilon=0.1, scan_box=(40, 40)
        )
        assert report.set_A.dtype == np.int64 and report.set_A.shape[1] == 2
        d = report.to_dict()
        assert d["mode"] == "oneunit"
        assert d["epsilon"] == 0.1
        assert d["scan_box"] == [40, 40]
        assert d["violations"] == []
        # The array itself goes to the writer, with no list made of it.
        assert d["set_A"] is report.set_A and len(d["set_A"]) > 0


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
