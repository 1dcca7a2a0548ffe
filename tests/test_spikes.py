import math
import tracemalloc

import numpy as np
import pytest

from spikesim import (
    CoverageError,
    InsufficientDataError,
    ModelParams,
    PathSeries,
    State,
    Trajectory,
    build_global,
    build_meanfield,
    build_oneunit,
    correlation,
    detect_plateaus,
    detect_spikes,
    fit_exponential,
    integrate,
    lln_sup_distance,
    pair_plateau_spike,
    simulate,
    tail_survival,
)


def step_series(times, values, t_end):
    return PathSeries(
        times=np.asarray(times, float),
        values=np.asarray(values, float),
        t_end=t_end,
        step=True,
    )


def linear_series(times, values):
    times = np.asarray(times, float)
    return PathSeries(
        times=times, values=np.asarray(values, float), t_end=float(times[-1]),
        step=False,
    )


def reflect_step(series: PathSeries) -> PathSeries:
    """Time-reverse a step path, re-expressed right-continuously."""
    total = series.t_end
    times = np.concatenate(([0.0], total - series.times[:0:-1]))
    values = series.values[::-1]
    return PathSeries(times=times, values=values, t_end=total, step=True)


class TestDetectSpikes:
    def test_flat_zero_has_no_spikes(self):
        series = step_series([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 3.0)
        assert len(detect_spikes(series, 10.0)) == 0

    def test_two_square_spikes(self):
        series = step_series([0, 1, 2, 3, 4], [0, 12, 0, 25, 0], 5.0)
        records = detect_spikes(series, 10.0)
        assert [r.amplitude for r in records] == [12.0, 25.0]
        assert records[0].t_start == 1.0 and records[0].t_end == 2.0
        assert records[1].t_start == 3.0 and records[1].t_end == 4.0
        assert records[0].t_peak == 1.0

    def test_internal_dip_stays_one_excursion(self):
        series = step_series(
            [0, 1, 2, 3, 4, 5], [0, 15, 11, 18, 0, 0], 6.0
        )
        records = detect_spikes(series, 10.0)
        assert len(records) == 1
        assert records[0].amplitude == 18.0
        assert records[0].t_peak == 3.0

    def test_dip_to_threshold_splits(self):
        # The excursion is values strictly above a0; touching a0 ends it.
        series = step_series([0, 1, 2, 3, 4], [0, 15, 10, 18, 0], 5.0)
        records = detect_spikes(series, 10.0)
        assert [r.amplitude for r in records] == [15.0, 18.0]

    def test_open_excursion_at_series_end(self):
        series = step_series([0, 1], [0, 20], 7.0)
        records = detect_spikes(series, 10.0)
        assert len(records) == 1
        assert records[0].t_end == 7.0

    def test_records_are_ordered_and_disjoint(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=5000.0, seed=3)
        records = detect_spikes(PathSeries.from_jump(traj), 10.0)
        assert len(records) > 5
        for a, b in zip(records, records[1:]):
            assert a.t_end <= b.t_start
        for r in records:
            assert r.t_start <= r.t_peak <= r.t_end
            assert r.amplitude > 10.0

    def test_reflection_preserves_amplitudes(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=2000.0, seed=5)
        series = PathSeries.from_jump(traj)
        fwd = [r.amplitude for r in detect_spikes(series, 10.0)]
        rev = [r.amplitude for r in detect_spikes(reflect_step(series), 10.0)]
        assert rev == fwd[::-1]

    def test_linear_series_interpolates_crossings(self):
        series = linear_series([0, 1, 2], [0.0, 20.0, 0.0])
        records = detect_spikes(series, 10.0)
        assert len(records) == 1
        assert records[0].t_start == pytest.approx(0.5)
        assert records[0].t_end == pytest.approx(1.5)
        assert records[0].t_peak == 1.0
        assert records[0].t_start < records[0].t_peak < records[0].t_end

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            detect_spikes(step_series([0.0], [0.0], 1.0), 0.0)


class TestDetectPlateaus:
    def test_always_above_threshold(self):
        series = step_series([0, 1], [5, 6], 2.0)
        assert len(detect_plateaus(series, 1.0)) == 0

    def test_lengths_of_zero_plateaus(self):
        series = step_series([0, 5, 6], [0, 12, 0], 10.0)
        records = detect_plateaus(series, 0.0)
        assert [r.length for r in records] == [5.0, 4.0]
        assert records[0].t_start == 0.0 and records[0].t_end == 5.0
        assert records[1].t_start == 6.0 and records[1].t_end == 10.0

    def test_threshold_merges_subthreshold_wiggles(self):
        series = step_series(
            [0, 1, 2, 3, 4], [0, 4, 0, 12, 0], 6.0
        )
        zero_thr = detect_plateaus(series, 0.0)
        ten_thr = detect_plateaus(series, 10.0)
        assert [r.length for r in zero_thr] == [1.0, 1.0, 2.0]
        assert [r.length for r in ten_thr] == [3.0, 2.0]

    def test_nesting_for_increasing_threshold(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=2000.0, seed=8)
        series = PathSeries.from_jump(traj)
        small = detect_plateaus(series, 2.0)
        large = detect_plateaus(series, 10.0)
        for rec in small:
            assert any(
                big.t_start <= rec.t_start and rec.t_end <= big.t_end
                for big in large
            )

    def test_linear_series_interpolates_crossings(self):
        series = linear_series([0, 2, 4], [20.0, 0.0, 20.0])
        records = detect_plateaus(series, 10.0)
        assert len(records) == 1
        assert records[0].t_start == pytest.approx(1.0)
        assert records[0].t_end == pytest.approx(3.0)

    def test_rejects_negative_threshold(self):
        for thr in (-1.0, math.nan):
            with pytest.raises(ValueError):
                detect_plateaus(step_series([0.0], [0.0], 1.0), thr)


class TestTailSurvival:
    def test_single_amplitude(self):
        grid, surv = tail_survival([15.0], 10.0)
        assert list(grid) == [10.0, 15.0]
        assert list(surv) == [1.0, 0.0]

    def test_half_point(self):
        grid, surv = tail_survival([11, 12, 13, 14], 10.0)
        value_at = dict(zip(grid, surv))
        assert value_at[12.0] == pytest.approx(0.5)
        idx = np.searchsorted(grid, 12.5, side="right") - 1
        assert surv[idx] == pytest.approx(0.5)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        amps = 10.0 + rng.exponential(5.0, 500)
        _, surv = tail_survival(amps, 10.0)
        assert np.all(np.diff(surv) <= 0)
        assert surv[0] == 1.0 and surv[-1] == 0.0

    def test_needs_data(self):
        with pytest.raises(InsufficientDataError):
            tail_survival([5.0, 7.0], 10.0)

    def test_memory_is_linear_in_the_sample(self):
        # 20,000 distinct amplitudes: an amplitude-by-grid matrix would take
        # 400 MB; a few arrays of the sample take under 4 MB.
        amps = 10.0 + np.random.default_rng(3).exponential(5.0, 20_000)
        assert len(np.unique(amps)) == len(amps)
        tracemalloc.start()
        try:
            grid, surv = tail_survival(amps, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == len(amps) + 1 and surv[-1] == 0.0
        assert peak < 200 * len(amps)


class TestFitExponential:
    def test_recovers_known_rate(self):
        rng = np.random.default_rng(2024)
        a0, rate = 10.0, 0.2
        amps = a0 - np.log(rng.random(10_000)) / rate  # inverse CDF
        fit = fit_exponential(amps, a0)
        assert 0.19 <= fit.lambda_hat <= 0.21
        assert abs(fit.lambda_hat - rate) / rate < 0.05
        assert fit.n_spikes == 10_000
        assert fit.r_squared > 0.9

    def test_two_point_sample(self):
        fit = fit_exponential([11.0, 13.0], 10.0)
        assert fit.lambda_hat == pytest.approx(0.5)

    def test_exactly_log_linear_survival(self):
        # Multiplicities 4, 2, 1, 1 halve the survival at each grid step.
        amps = [11.0] * 4 + [12.0] * 2 + [13.0] + [14.0]
        fit = fit_exponential(amps, 10.0)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_positive_survival_points_fit_exactly(self):
        # Survival 1 at a0 and 1/3 at 11: a line passes through both.
        fit = fit_exponential([11.0, 11.0, 12.0], 10.0)
        assert fit.r_squared == 1.0

    def test_degenerate_sample_has_no_r_squared(self):
        fit = fit_exponential([12.0, 12.0, 12.0], 10.0)
        assert fit.lambda_hat == pytest.approx(0.5)
        assert fit.r_squared is None

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            fit_exponential([11.0], 10.0)

    def test_to_dict_field_names(self):
        fit = fit_exponential([11.0, 13.0], 10.0)
        assert set(fit.to_dict()) == {"a0", "lambda_hat", "r_squared", "n_spikes"}


def plateaus(*intervals):
    """A plateau table of (t_start, t_end) intervals, as detect_plateaus gives."""
    start, end = np.array(intervals, float).reshape(-1, 2).T
    return np.rec.fromarrays([start, end, end - start], names="t_start, t_end, length")


def spikes(*excursions):
    """A spike table of (t_start, amplitude) excursions, as detect_spikes gives."""
    start, amplitude = np.array(excursions, float).reshape(-1, 2).T
    return np.rec.fromarrays([start + 0.1, amplitude, start, start + 0.5],
                             names="t_peak, amplitude, t_start, t_end")


class TestPairing:
    def test_no_spikes(self):
        assert len(pair_plateau_spike(plateaus((0, 5)), spikes())) == 0

    def test_each_plateau_takes_next_spike(self):
        pairs = pair_plateau_spike(plateaus((0, 5), (8, 10)), spikes((6, 30.0), (12, 50.0)))
        assert pairs.tolist() == [[5.0, 30.0], [2.0, 50.0]]

    def test_spike_pairs_with_nearest_preceding_plateau(self):
        pairs = pair_plateau_spike(plateaus((0, 3), (4, 6)), spikes((7, 30.0)))
        assert pairs.tolist() == [[2.0, 30.0]]

    def test_plateau_without_following_spike_dropped(self):
        pairs = pair_plateau_spike(plateaus((0, 3), (50, 60)), spikes((7, 30.0)))
        assert pairs.tolist() == [[3.0, 30.0]]

    def test_spike_start_at_plateau_end_pairs(self):
        # Equal plateau and spike thresholds make the excursion begin exactly
        # where the plateau ends.
        pairs = pair_plateau_spike(plateaus((0, 5)), spikes((5, 20.0)))
        assert pairs.tolist() == [[5.0, 20.0]]


def test_detection_and_pairing_return_arrays():
    series = step_series([0, 1, 2, 3, 4], [0, 12, 0, 25, 0], 5.0)
    found, quiet = detect_spikes(series, 10.0), detect_spikes(series, 30.0)
    for table in (found, quiet):
        assert isinstance(table, np.recarray)
        assert table.dtype.names == ("t_peak", "amplitude", "t_start", "t_end")
    assert len(found) == 2 and len(quiet) == 0
    lows, none = detect_plateaus(series, 0.0), detect_plateaus(step_series([0], [5], 1.0), 0.0)
    for table in (lows, none):
        assert isinstance(table, np.recarray)
        assert table.dtype.names == ("t_start", "t_end", "length")
    assert len(lows) == 3 and len(none) == 0
    for pairs, rows in ((pair_plateau_spike(lows, found), 2),
                        (pair_plateau_spike(lows, quiet), 0),
                        (pair_plateau_spike(none, found), 0),
                        (pair_plateau_spike(plateaus((8, 9)), found), 0)):
        assert isinstance(pairs, np.ndarray) and pairs.dtype == np.float64
        assert pairs.shape == (rows, 2)


class TestCorrelation:
    def test_perfect_line(self):
        pairs = [(1, 2), (2, 4), (3, 6), (4, 8)]
        result = correlation(pairs)
        assert result.pearson == pytest.approx(1.0)
        assert result.spearman == pytest.approx(1.0)
        assert result.n == 4

    def test_rank_example(self):
        result = correlation([(1, 2), (2, 1), (3, 3)])
        assert result.spearman == pytest.approx(0.5)

    def test_constant_coordinate_undefined(self):
        result = correlation([(1, 2), (2, 2), (3, 2)])
        assert result.pearson is None and result.spearman is None

    def test_ties_use_average_ranks(self):
        result = correlation([(1, 5), (2, 5), (3, 7), (4, 7)])
        assert result.spearman == pytest.approx(0.8944271909999159)

    def test_needs_three_pairs(self):
        with pytest.raises(InsufficientDataError):
            correlation([(1, 2), (2, 3)])


def constant_ode(params, r, n, t_end, n_samples=11):
    t = np.linspace(0.0, t_end, n_samples)
    return Trajectory(
        t=t, r=np.full_like(t, r), n=np.full_like(t, n),
        params=params, dt=t[1] - t[0], sample_every=1,
    )


def _reference_sup_distance(jump_traj, ode_traj, t):
    """``lln_sup_distance`` as its definition reads: at every jump time,
    every ODE sample time and t itself, both one-sided values of the step
    path against ``np.interp`` of the ODE path."""
    jt = jump_traj.step_times()
    points = np.concatenate((jump_traj.times, ode_traj.t, [t]))
    points = points[points <= t]
    after = np.searchsorted(jt, points, side="right") - 1
    before = np.maximum(np.searchsorted(jt, points, side="left") - 1, 0)
    gap = 0.0
    for step, ode in ((jump_traj.step_r(), ode_traj.r), (jump_traj.step_n(), ode_traj.n)):
        ode_at = np.interp(points, ode_traj.t, ode)
        for index in (before, after):
            gap = max(gap, float(np.max(np.abs(step[index] - ode_at))))
    return gap


class TestLLNSupDistance:
    @pytest.mark.parametrize("gamma", [100.0, 2.0])
    @pytest.mark.parametrize("build", [build_oneunit, build_meanfield,
                                       lambda params: build_global(params, 10)],
                             ids=["oneunit", "meanfield", "global"])
    def test_matches_the_reference(self, build, gamma):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=gamma, p=7.0)
        spec = build(params)
        odes = [integrate(params, State(0.01, 0.01), t_end=40.0, dt=dt) for dt in (1e-2, 0.37)]
        for seed in range(6):
            traj = simulate(spec, spec.lattice_state(0.01, 0.01), t_end=40.0, seed=seed)
            for ode_traj in odes:
                for t in (5.0, 20.0, 37.3, 40.0):
                    want = _reference_sup_distance(traj, ode_traj, t)
                    assert lln_sup_distance(traj, ode_traj, t) == want

    def test_zero_for_identical_constant_paths(self, fig1_params):
        spec = build_oneunit(ModelParams(0.5, 1.0, 2.0, 0.0))
        init = spec.lattice_state(1.0, 0.0)
        traj = simulate(spec, init, max_jumps=0, seed=0)
        traj.t_end = 10.0
        ode_traj = constant_ode(fig1_params, 1.0, 0.0, 10.0)
        assert lln_sup_distance(traj, ode_traj, 10.0) == 0.0

    def test_single_jump_distance(self, fig1_params):
        # One pumping jump of size 1/gamma against a flat reference.
        spec = build_oneunit(ModelParams(0.0, 1.0, 2.0, 5.0))
        init = spec.lattice_state(0.0, 0.0)
        traj = simulate(spec, init, max_jumps=1, seed=0)
        traj.t_end = 10.0
        ode_traj = constant_ode(fig1_params, 0.0, 0.0, 10.0)
        assert lln_sup_distance(traj, ode_traj, 10.0) == pytest.approx(0.5)

    def test_non_decreasing_in_horizon(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.01, 0.01), t_end=20.0, seed=4)
        ref = integrate(fig1_params, State(0.01, 0.01), t_end=20.0, dt=1e-2)
        values = [lln_sup_distance(traj, ref, t) for t in (5.0, 10.0, 15.0, 20.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_coverage_error(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.01, 0.01), t_end=5.0, seed=4)
        ref = integrate(fig1_params, State(0.01, 0.01), t_end=20.0, dt=1e-2)
        with pytest.raises(CoverageError):
            lln_sup_distance(traj, ref, 10.0)
