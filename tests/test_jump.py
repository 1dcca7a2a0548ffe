import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import PARAM_GRID

from spikesim import (
    CHANNEL_LABELS,
    EventCapError,
    LatticeState,
    ModelParams,
    ProcessKind,
    ProcessSpec,
    State,
    Termination,
    build_global,
    build_meanfield,
    build_oneunit,
    derive_path_seed,
    expected_drift,
    meanfield_drift_field,
    next_jump,
    simulate,
    stationary_point,
    vector_field,
)
from spikesim import io, jump

# chi-square 99% quantile, 4 degrees of freedom (5 channels - 1)
CHI2_99_DF4 = 13.2767


class TestBuilders:
    def test_global_rates_at_unit_state(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
        spec = build_global(params, 10)
        s = spec.lattice_state(1.0, 1.0)
        assert (s.kr, s.kn) == (20, 10)
        assert spec.channel_rates(s) == pytest.approx([10.0, 0.1, 10.0, 70.0, 10.0])

    def test_global_origin_only_pumping(self, fig1_params):
        spec = build_global(fig1_params, 10)
        s = spec.lattice_state(0.0, 0.0)
        rates = spec.channel_rates(s)
        assert rates[3] == pytest.approx(10 * 7.0)
        assert sum(rates) == rates[3]

    def test_global_absorbing_without_pumping(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=0.0)
        spec = build_global(params, 5)
        assert sum(spec.channel_rates(spec.lattice_state(0.0, 0.0))) == 0.0

    def test_global_rejects_bad_n(self, fig1_params):
        with pytest.raises(ValueError):
            build_global(fig1_params, 0)

    @pytest.mark.parametrize("build", [build_oneunit, build_meanfield,
                                       lambda params: build_global(params, 3)],
                             ids=["oneunit", "meanfield", "global"])
    def test_rejects_a_unit_past_the_largest_float(self, build):
        # r_unit = 1/gamma (over N) is about 1e310.
        with pytest.raises(ValueError, match="lattice unit r_unit = inf is not a finite float"):
            build(ModelParams(alpha=0.01, beta=1.0, gamma=1e-310, p=7.0))

    def test_global_rejects_a_unit_that_rounds_to_zero(self):
        # r_unit = 1/(N gamma) = 1e-330 is below the least float.
        with pytest.raises(ValueError, match="lattice unit r_unit = 0.0 is not a finite float"):
            build_global(ModelParams(alpha=0.01, beta=1.0, gamma=1e300, p=7.0), 10**30)

    def test_global_rejects_n_units_past_the_largest_float(self, fig1_params):
        with pytest.raises(ValueError, match="n_units must be finite as a float"):
            build_global(fig1_params, 10**400)

    def test_meanfield_boundary_censoring(self, fig1_params):
        spec = build_meanfield(fig1_params)
        r_star = stationary_point(fig1_params).r
        s = spec.lattice_state(0.0, 5.0)
        # Raw intensity is positive, but the jump would take kr to -1.
        assert jump._rate(spec._rows[0], s.r, s.n) == pytest.approx(0.5 * r_star * 5)
        assert spec.channel_rates(s)[0] == 0.0

    def test_meanfield_origin_total_rate(self, fig1_params):
        spec = build_meanfield(fig1_params)
        assert sum(spec.channel_rates(spec.lattice_state(0.0, 0.0))) == pytest.approx(7.0)

    def test_meanfield_zero_anchor_kills_stimulated_channel(self):
        params = ModelParams(alpha=0.0, beta=1.0, gamma=2.0, p=7.0)
        spec = build_meanfield(params, anchor=State(0.0, 0.0))
        for r, n in [(1.0, 3.0), (2.5, 0.0), (4.0, 11.0)]:
            assert jump._rate(spec._rows[0], r, n) == 0.0

    def test_meanfield_rejects_negative_anchor(self, fig1_params):
        with pytest.raises(ValueError):
            build_meanfield(fig1_params, anchor=State(-1.0, 0.0))

    def test_oneunit_rates(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
        spec = build_oneunit(params)
        s = spec.lattice_state(2.0, 3.0)
        rates = spec.channel_rates(s)
        assert rates == pytest.approx([6.0, 0.02, 3.0, 7.0, 3.0])
        assert sum(rates) == pytest.approx(19.02)

    def test_oneunit_pumping_from_origin(self, fig1_params):
        spec = build_oneunit(fig1_params)
        s = spec.lattice_state(0.0, 0.0)
        assert sum(spec.channel_rates(s)) == pytest.approx(7.0)
        rng = np.random.default_rng(0)
        wait, channel = next_jump(spec, s, rng)
        assert CHANNEL_LABELS[channel] == "pumping"

    def test_lattice_units(self, fig1_params):
        assert float(build_global(fig1_params, 10).r_unit) == pytest.approx(1 / 1000)
        assert float(build_global(fig1_params, 10).n_unit) == pytest.approx(1 / 10)
        assert float(build_oneunit(fig1_params).r_unit) == pytest.approx(1 / 100)
        assert float(build_oneunit(fig1_params).n_unit) == 1.0

    def test_five_labelled_channels(self, fig1_params):
        for spec in (
            build_global(fig1_params, 3),
            build_meanfield(fig1_params),
            build_oneunit(fig1_params),
        ):
            assert [len(row) for row in spec.table] == [5] * len(CHANNEL_LABELS)


def _oneunit_as_written(params: ModelParams) -> ProcessSpec:
    """The N = 1 chain from its own rates, x*y, alpha*x, y, p and y/beta on
    (1/gamma)Z+ x Z+, not from the N-unit builder."""
    return ProcessSpec(
        params, ProcessKind.ONEUNIT,
        jump._make_table({"k_rn": 1.0}, {"k_r": params.alpha}, {"k_n": 1.0},
                         {"k_1": params.p}, {"k_n": 1.0, "div": params.beta}),
        r_unit=Fraction(1) / Fraction(params.gamma), n_unit=Fraction(1),
    )


class TestOneUnitIsGlobalOfOne:
    """``build_oneunit`` is ``build_global(params, 1)`` under its own kind,
    bit for bit the chain its rates describe."""

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_same_table_and_lattice(self, params):
        oneunit = build_oneunit(params)
        assert oneunit.kind is ProcessKind.ONEUNIT
        assert oneunit == _oneunit_as_written(params)
        for spec in (build_global(params, 1), _oneunit_as_written(params)):
            assert spec._rows == oneunit._rows
            assert (spec.r_unit, spec.n_unit, spec.n_units) == (
                oneunit.r_unit, oneunit.n_unit, oneunit.n_units)

    @pytest.mark.parametrize("kernel", ["in use", "python"])
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_same_paths(self, params, kernel, monkeypatch):
        if kernel == "python":
            monkeypatch.setattr(jump, "_compiled_run", lambda: None)
        specs = (build_oneunit(params), build_global(params, 1), _oneunit_as_written(params))
        for seed in (0, 1, 2):
            first, *others = (simulate(spec, spec.lattice_state(0.0, 0.0), t_end=50.0,
                                       max_jumps=300, seed=seed) for spec in specs)
            for other in others:
                for name in ("times", "krs", "kns", "channels"):
                    assert np.array_equal(getattr(other, name), getattr(first, name))


class TestDensityDependence:
    def test_rate_scaling_is_exact(self, fig1_params):
        spec1 = build_global(fig1_params, 10)
        spec2 = build_global(fig1_params, 20)
        for kr, kn in [(0, 0), (3, 5), (40, 17), (213, 88)]:
            s1 = LatticeState(kr, kn, spec1.r_unit, spec1.n_unit)
            s2 = LatticeState(2 * kr, 2 * kn, spec2.r_unit, spec2.n_unit)
            r1 = spec1.channel_rates(s1)
            r2 = spec2.channel_rates(s2)
            for a, b in zip(r1, r2):
                assert b == 2.0 * a  # exact: same physical state, doubled size


class TestNextJump:
    def test_absorbed_at_origin_without_pumping(self):
        params = ModelParams(alpha=0.1, beta=1.0, gamma=2.0, p=0.0)
        spec = build_oneunit(params)
        rng = np.random.default_rng(0)
        assert next_jump(spec, spec.lattice_state(0.0, 0.0), rng) is None

    def test_waiting_time_mean(self, fig1_params):
        spec = build_oneunit(fig1_params)
        s = spec.lattice_state(0.0, 0.0)  # total rate 7
        rng = np.random.default_rng(123)
        draws = np.array([next_jump(spec, s, rng)[0] for _ in range(100_000)])
        se = (1 / 7.0) / np.sqrt(len(draws))
        assert abs(draws.mean() - 1 / 7.0) < 3 * se

    def test_channel_frequencies_match_rates(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
        spec = build_oneunit(params)
        s = spec.lattice_state(2.0, 3.0)
        rates = np.array(spec.channel_rates(s))
        probs = rates / rates.sum()
        rng = np.random.default_rng(42)
        n_draws = 100_000
        counts = np.zeros(5)
        for _ in range(n_draws):
            counts[next_jump(spec, s, rng)[1]] += 1
        expected = probs * n_draws
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_99_DF4


def _draw_from_channel_rates(spec: ProcessSpec, s: LatticeState) -> tuple[float, int]:
    """The draw of ``next_jump(spec, s, default_rng(0))`` rebuilt from
    ``channel_rates(s)``: the exponential over the rate sum, then the first
    channel whose cumulative rate exceeds the uniform times the sum, else
    the last channel with a positive rate."""
    rates = spec.channel_rates(s)
    cum, total = [], 0.0
    for rate in rates:
        total += rate
        cum.append(total)
    rng = np.random.default_rng(0)
    wait = rng.standard_exponential() / total
    u = rng.random() * total
    top = max(i for i, rate in enumerate(rates) if rate > 0.0)
    return wait, next((i for i in range(top) if u < cum[i]), top)


class TestChannelRates:
    @pytest.mark.parametrize("gamma", [3.0, 7.0, 10.0, 100.0])
    def test_the_loops_draw_against_channel_rates(self, gamma):
        # At gamma = 10, kr = 3 is r = 0.3 as a rounded fraction, but
        # 0.30000000000000004 as the loops' kr * float(r_unit).
        params = ModelParams(alpha=0.01, beta=0.7, gamma=gamma, p=7.0)
        for spec in (build_oneunit(params), build_global(params, 10), build_meanfield(params)):
            for kr in range(1, 40):
                for kn in (0, 1, 5):
                    s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
                    assert (next_jump(spec, s, np.random.default_rng(0))
                            == _draw_from_channel_rates(spec, s)), (spec.kind, kr, kn)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self, fig1_params):
        spec = build_oneunit(fig1_params)
        init = spec.lattice_state(0.0, 0.0)
        a = simulate(spec, init, t_end=50.0, seed=42)
        b = simulate(spec, init, t_end=50.0, seed=42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.krs, b.krs)
        assert np.array_equal(a.kns, b.kns)
        assert np.array_equal(a.channels, b.channels)

    def test_different_seeds_differ(self, fig1_params):
        spec = build_oneunit(fig1_params)
        init = spec.lattice_state(0.0, 0.0)
        a = simulate(spec, init, t_end=50.0, seed=1)
        b = simulate(spec, init, t_end=50.0, seed=2)
        assert not np.array_equal(a.times, b.times)

    def test_zero_jump_horizon(self, fig1_params):
        spec = build_oneunit(fig1_params)
        init = spec.lattice_state(0.5, 2.0)
        traj = simulate(spec, init, max_jumps=0, seed=7)
        assert traj.n_events == 0
        assert traj.terminated_by is Termination.MAX_JUMPS
        assert np.array_equal(traj.step_times(), [0.0])
        assert traj.step_n() == pytest.approx([2.0])

    def test_max_jumps_termination(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=100, seed=3)
        assert traj.n_events == 100
        assert traj.terminated_by is Termination.MAX_JUMPS

    @pytest.mark.parametrize("max_jumps", [0, 3])
    def test_a_run_the_jump_count_stops_covers_up_to_its_last_event(self, fig1_params,
                                                                    max_jumps):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=200.0, max_jumps=max_jumps,
                        seed=1)
        assert traj.terminated_by is Termination.MAX_JUMPS
        assert traj.n_events == max_jumps
        assert traj.t_end == (traj.times[-1] if max_jumps else 0.0)
        assert traj.t_end < 1.0  # the third event is at t = 0.216

    def test_absorbed_run_covers_its_horizon(self):
        spec = build_oneunit(ModelParams(alpha=0.5, beta=1.0, gamma=2.0, p=0.0))
        traj = simulate(spec, spec.lattice_state(3.0, 2.0), t_end=1e6, max_jumps=10**6, seed=11)
        assert traj.terminated_by is Termination.ABSORBED
        assert traj.t_end == 1e6

    def test_time_horizon_termination(self, fig1_params):
        spec = build_oneunit(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=10.0, seed=3)
        assert traj.terminated_by is Termination.TIME_HORIZON
        assert traj.t_end == 10.0
        assert traj.times[-1] <= 10.0

    def test_absorption(self):
        params = ModelParams(alpha=0.5, beta=1.0, gamma=2.0, p=0.0)
        spec = build_oneunit(params)
        init = spec.lattice_state(3.0, 2.0)
        traj = simulate(spec, init, t_end=1e6, seed=11)
        assert traj.terminated_by is Termination.ABSORBED
        assert traj.kns[-1] == 0 and traj.krs[-1] == 0

    def test_event_cap(self, fig1_params):
        spec = build_oneunit(fig1_params)
        with pytest.raises(EventCapError):
            simulate(spec, spec.lattice_state(0.0, 0.0), t_end=1e5, seed=1,
                     max_events=1000)

    @pytest.mark.parametrize("kr, kn", [(2**62, 0), (0, 2**62), (2**63 + 5, 3)])
    def test_rejects_indices_past_the_int64_room(self, fig1_params, kr, kn):
        spec = build_oneunit(fig1_params)
        with pytest.raises(ValueError, match=r"< 2\*\*62"):
            LatticeState(kr, kn, spec.r_unit, spec.n_unit)

    def test_kernels_agree_from_the_largest_start(self, fig1_params, monkeypatch):
        spec = build_oneunit(fig1_params)
        start = LatticeState(2**62 - 1, 3, spec.r_unit, spec.n_unit)
        in_use = simulate(spec, start, max_jumps=5, seed=4)
        monkeypatch.setattr(jump, "_compiled_run", lambda: None)
        python = simulate(spec, start, max_jumps=5, seed=4)
        assert in_use.n_events == python.n_events == 5
        assert np.array_equal(in_use.times, python.times)
        assert np.array_equal(in_use.krs, python.krs)
        assert np.array_equal(in_use.channels, python.channels)

    @pytest.mark.parametrize("kernel", ["in use", "python"])
    @pytest.mark.parametrize("make", [lambda p: build_global(p, 1), build_meanfield, build_oneunit],
                             ids=["global", "meanfield", "oneunit"])
    def test_top_edge_pick_is_a_channel_with_a_positive_rate(self, monkeypatch, make, kernel):
        # At (0, 0) with p = 5e-324 only pumping has a positive rate, and the
        # uniform times that subnormal total rounds onto the top edge of the
        # cumulative rates, past which lies the leak at rate 0.  The waiting
        # times at that rate overflow to inf, which ``simulate`` refuses, so
        # the kernel runs on its own.
        spec = make(ModelParams(alpha=0.0, beta=1.0, gamma=100.0, p=5e-324))
        if kernel == "python":
            monkeypatch.setattr(jump, "_compiled_run", lambda: None)
        times, picks, _stop = jump._run(spec, 0, 0, np.random.default_rng(0), math.inf, 3)
        assert [CHANNEL_LABELS[c] for c in picks] == ["pumping"] * 3
        assert list(times) == [math.inf] * 3
        with pytest.raises(ValueError, match="event time inf is not finite"):
            simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=3, seed=0)

    def test_a_lattice_state_has_one_value_along_the_path(self, fig1_params, tmp_path):
        spec = build_meanfield(fig1_params)
        traj = simulate(spec, LatticeState(190, 0, spec.r_unit, spec.n_unit), t_end=50.0, seed=1)
        returns = np.flatnonzero(traj.krs == 190) + 1  # step indices back at kr = 190
        assert len(returns) > 10
        assert np.all(traj.step_r()[returns] == traj.step_r()[0])
        io.write_jump_csv(tmp_path / "p.csv", traj)
        _meta, columns = io.read_trajectory_csv(tmp_path / "p.csv")
        assert np.all(columns["r"][returns] == columns["r"][0])

    def test_requires_horizon(self, fig1_params):
        spec = build_oneunit(fig1_params)
        with pytest.raises(ValueError):
            simulate(spec, spec.lattice_state(0.0, 0.0), seed=1)

    def test_rejects_foreign_lattice(self, fig1_params):
        spec10 = build_global(fig1_params, 10)
        spec20 = build_global(fig1_params, 20)
        with pytest.raises(ValueError):
            simulate(spec20, spec10.lattice_state(0.0, 0.0), t_end=1.0, seed=1)

    @pytest.mark.parametrize("make", [
        lambda p: build_global(p, 10),
        lambda p: build_meanfield(p),
        lambda p: build_oneunit(p),
    ])
    def test_non_negative_lattice_coordinates(self, fig1_params, make):
        spec = make(fig1_params)
        traj = simulate(spec, spec.lattice_state(0.01, 0.01), max_jumps=100_000,
                        seed=5)
        assert traj.krs.min() >= 0
        assert traj.kns.min() >= 0

    def test_consecutive_states_differ_by_channel_increment(self, fig1_params):
        spec = build_global(fig1_params, 10)
        traj = simulate(spec, spec.lattice_state(0.01, 0.01), max_jumps=5000, seed=9)
        steps = np.array([( -1, 1), (-1, 1), (1, -1), (1, 0), (0, -1)])
        dkr = np.diff(np.concatenate(([traj.initial.kr], traj.krs)))
        dkn = np.diff(np.concatenate(([traj.initial.kn], traj.kns)))
        assert np.array_equal(dkr, steps[traj.channels, 0])
        assert np.array_equal(dkn, steps[traj.channels, 1])

    def test_global_spikes_exceed_twice_stationary(self, fig1_params):
        # Photon paths at N = 10 overshoot 2 n* in nearly every realisation.
        spec = build_global(fig1_params, 10)
        init = spec.lattice_state(0.01, 0.01)
        n_star = stationary_point(fig1_params).n
        hits = 0
        for k in range(10):
            traj = simulate(spec, init, t_end=200.0, seed=derive_path_seed(100, k))
            if traj.step_n()[1:].max() > 2 * n_star:
                hits += 1
        assert hits >= 8


class TestExpectedDrift:
    @pytest.mark.parametrize("n_units", [1, 10, 50])
    def test_global_drift_equals_vector_field(self, fig1_params, n_units):
        from spikesim import LatticeState

        spec = build_global(fig1_params, n_units)
        for kr in range(0, 400, 20):
            for kn in range(0, 400, 20):
                s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
                drift = expected_drift(spec, s)
                field = vector_field(fig1_params, State(s.r, s.n))
                assert drift[0] == pytest.approx(field[0], abs=1e-12)
                assert drift[1] == pytest.approx(field[1], abs=1e-12)

    def test_meanfield_drift_vanishes_at_anchor(self, fig1_params):
        fp = stationary_point(fig1_params)
        dr, dn = meanfield_drift_field(fig1_params, fp, fp)
        assert abs(dr) < 1e-12 and abs(dn) < 1e-12

    def test_meanfield_lattice_drift_near_anchor(self, fig1_params):
        spec = build_meanfield(fig1_params)
        fp = stationary_point(fig1_params)
        s = spec.lattice_state(fp.r, fp.n)
        dr, dn = expected_drift(spec, s)
        # Lattice rounding moves the state by at most half a unit in each
        # coordinate; the drift is Lipschitz with the rate coefficients.
        slack_r = 0.5 * float(spec.r_unit)
        slack_n = 0.5 * float(spec.n_unit)
        lip = (fp.n / 2 + fig1_params.alpha + 1.0) * slack_r + (
            fp.r / 2 + 1.0 + 1.0 / fig1_params.beta
        ) * slack_n
        assert abs(dr) <= lip and abs(dn) <= lip

    def test_meanfield_matches_continuous_field_away_from_boundary(self, fig1_params):
        from spikesim import LatticeState

        spec = build_meanfield(fig1_params)
        fp = stationary_point(fig1_params)
        for kr in (1, 7, 100, 333):
            for kn in (0, 3, 50):
                s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
                drift = expected_drift(spec, s)
                field = meanfield_drift_field(fig1_params, fp, State(s.r, s.n))
                assert drift[0] == pytest.approx(field[0], abs=1e-12)
                assert drift[1] == pytest.approx(field[1], abs=1e-12)

    def test_oneunit_drift_example(self):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
        spec = build_oneunit(params)
        s = spec.lattice_state(2.0, 3.0)
        dr, dn = expected_drift(spec, s)
        assert dr == pytest.approx(1.99, abs=1e-12)
        assert dn == pytest.approx(0.02, abs=1e-12)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_path_seed(99, k) for k in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [derive_path_seed(99, k) for k in range(100)]

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_path_seed(1, -1)

    @pytest.mark.parametrize("seed, index, expected", [
        (0, 0, 0xE220A8397B1DCDAF),  # SplitMix64's first output from state 0
        (1, 2, 0x975835DE1C9756CF),
        (2**64 - 1, 1, 0x6EF5D21376FDA33E),
    ])
    def test_golden_values(self, seed, index, expected):
        assert derive_path_seed(seed, index) == expected

    def test_order_independent_ensembles(self, fig1_params):
        spec = build_oneunit(fig1_params)
        init = spec.lattice_state(0.0, 0.0)

        def path(k):
            return simulate(spec, init, max_jumps=500,
                            seed=derive_path_seed(7, k)).times

        forward = [path(k) for k in range(4)]
        backward = [path(k) for k in reversed(range(4))]
        for a, b in zip(forward, reversed(backward)):
            assert np.array_equal(a, b)
