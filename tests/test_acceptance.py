"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 8 and 9 share five long one-unit runs (module-scoped
fixture); everything else is fast.
"""

import numpy as np
import pytest

from spikesim import (
    LatticeState,
    ModelParams,
    ProcessKind,
    Regime,
    State,
    build_global,
    build_meanfield,
    build_oneunit,
    classify_regime,
    correlation,
    derive_path_seed,
    detect_plateaus,
    detect_spikes,
    drift_closed_form,
    drift_via_generator,
    expected_drift,
    fit_exponential,
    gamma_boundaries,
    integrate,
    jacobian,
    lln_sup_distance,
    meanfield_drift_field,
    pair_plateau_spike,
    scan_drift_condition,
    simulate,
    stationary_point,
    vector_field,
)
from spikesim import PathSeries, io
from conftest import FIG1_PARAMS, PARAM_GRID

SPIKE_SEEDS = (1, 2, 3, 4, 5)
SPIKE_HORIZON = 100_000.0
SPIKE_A0 = 10.0
PLATEAU_THR = 10.0


@pytest.fixture(scope="module")
def oneunit_long_runs():
    """Five long one-unit trajectories at the gamma = 100 parameter set."""
    spec = build_oneunit(FIG1_PARAMS)
    init = spec.lattice_state(0.0, 0.0)
    return {
        seed: simulate(spec, init, t_end=SPIKE_HORIZON, seed=seed)
        for seed in SPIKE_SEEDS
    }


def test_criterion_1_stationary_point():
    params = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
    r_star, n_star = stationary_point(params)
    assert abs(r_star - 14.0 / 7.01) <= 1e-12
    assert abs(n_star - 7.0) <= 1e-12
    dr, dn = vector_field(params, State(r_star, n_star))
    assert abs(dr) <= 1e-12 and abs(dn) <= 1e-12
    print("criterion 1: PASS - stationary point (14/7.01, 7) annihilates the field")


def test_criterion_2_regime_classification():
    def independent_regime(params):
        # Discriminant sign via the numerically diagonalized linearization.
        eigs = np.linalg.eigvals(np.array(jacobian(params)))
        return Regime.STABLE_FOCUS if abs(eigs[0].imag) > 1e-12 else Regime.STABLE_NODE

    for gamma, expected in ((1.0, Regime.STABLE_NODE), (2.0, Regime.STABLE_FOCUS),
                            (100.0, Regime.STABLE_FOCUS)):
        params = ModelParams(alpha=0.01, beta=1.0, gamma=gamma, p=7.0)
        assert classify_regime(params) is expected
        assert independent_regime(params) is expected

    for gamma in (0.1, 1.0, 10.0, 100.0):
        params = ModelParams(alpha=8.0, beta=1.0, gamma=gamma, p=7.0)
        assert classify_regime(params) is Regime.STABLE_NODE
        assert independent_regime(params) is Regime.STABLE_NODE
    print("criterion 2: PASS - regimes match the independently evaluated discriminant")


def test_criterion_3_boundary_limits():
    bounds = gamma_boundaries(ModelParams(alpha=1e-6, beta=1.0, gamma=1.0, p=7.0))
    assert abs(bounds.gamma1 - 1.75) <= 1e-3
    assert bounds.gamma2 > 1e6
    print(
        f"criterion 3: PASS - gamma1 = {bounds.gamma1:.6f} -> beta^2 p/4, "
        f"gamma2 = {bounds.gamma2:.3e} -> infinity"
    )


def test_criterion_4_drift_identity():
    worst = 0.0
    for n_units in (1, 10, 50):
        spec = build_global(FIG1_PARAMS, n_units)
        for kr in range(0, 400, 20):
            for kn in range(0, 400, 20):
                s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
                drift = expected_drift(spec, s)
                field = vector_field(FIG1_PARAMS, State(s.r, s.n))
                worst = max(worst, abs(drift[0] - field[0]), abs(drift[1] - field[1]))
    assert worst <= 1e-12
    print(f"criterion 4: PASS - max |expected_drift - vector_field| = {worst:.2e}")


def test_criterion_5_lln_convergence():
    reference = integrate(FIG1_PARAMS, State(0.01, 0.01), t_end=20.0, dt=1e-3)
    means = {}
    for n_units in (10, 100):
        spec = build_global(FIG1_PARAMS, n_units)
        init = spec.lattice_state(0.01, 0.01)
        distances = [
            lln_sup_distance(
                simulate(spec, init, t_end=20.0, seed=derive_path_seed(7, k)),
                reference,
                20.0,
            )
            for k in range(20)
        ]
        means[n_units] = float(np.mean(distances))
    assert means[100] <= 0.6 * means[10]
    print(
        f"criterion 5: PASS - mean sup distance {means[100]:.4f} (N=100) "
        f"<= 0.6 x {means[10]:.4f} (N=10)"
    )


def test_criterion_6_meanfield_stationary_consistency():
    worst = 0.0
    for params in PARAM_GRID:
        fp = stationary_point(params)
        dr, dn = meanfield_drift_field(params, fp, fp)
        worst = max(worst, abs(dr), abs(dn))
    assert worst <= 1e-12
    print(f"criterion 6: PASS - mean-field drift at (r*, n*) <= {worst:.2e} on the grid")


def test_criterion_7_lyapunov_scans():
    for kind in (ProcessKind.ONEUNIT, ProcessKind.MEANFIELD):
        report = scan_drift_condition(kind, FIG1_PARAMS, epsilon=0.1,
                                      scan_box=(400, 400))
        assert report.passed, f"{kind}: violations {report.violations[:3]}"

    worst = 0.0
    for kind, spec in (
        (ProcessKind.ONEUNIT, build_oneunit(FIG1_PARAMS)),
        (ProcessKind.MEANFIELD, build_meanfield(FIG1_PARAMS)),
    ):
        kr_lo = 1 if kind is ProcessKind.MEANFIELD else 0
        for kr in range(kr_lo, kr_lo + 50):
            for kn in range(50):
                s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
                closed = float(drift_closed_form(kind, FIG1_PARAMS, s.r, s.n))
                worst = max(worst, abs(closed - drift_via_generator(spec, s)))
    assert worst <= 1e-10
    print(
        "criterion 7: PASS - drift scans clean; closed form vs generator "
        f"agree to {worst:.2e}"
    )


def test_criterion_8_spike_tail_exponentiality(oneunit_long_runs):
    r_squared = {}
    for seed, traj in oneunit_long_runs.items():
        spikes = detect_spikes(PathSeries.from_jump(traj), SPIKE_A0)
        fit = fit_exponential([s.amplitude for s in spikes], SPIKE_A0)
        r_squared[seed] = fit.r_squared
    passing = sum(1 for v in r_squared.values() if v is not None and v >= 0.9)
    assert passing >= 3, f"r^2 by seed: {r_squared}"
    summary = ", ".join(f"{s}: {v:.3f}" for s, v in r_squared.items())
    print(f"criterion 8: PASS - log-survival r^2 >= 0.9 in {passing}/5 seeds ({summary})")


def test_criterion_9_plateau_amplitude_correlation(oneunit_long_runs):
    rhos = {}
    for seed, traj in oneunit_long_runs.items():
        series = PathSeries.from_jump(traj)
        spikes = detect_spikes(series, SPIKE_A0)
        plateaus = detect_plateaus(series, PLATEAU_THR)
        pairs = pair_plateau_spike(plateaus, spikes)
        rhos[seed] = correlation(pairs).spearman
    positive = sum(1 for v in rhos.values() if v is not None and v > 0)
    assert positive >= 4, f"spearman by seed: {rhos}"
    summary = ", ".join(f"{s}: {v:.3f}" for s, v in rhos.items())
    print(f"criterion 9: PASS - spearman > 0 in {positive}/5 seeds ({summary})")


def test_criterion_10_determinism_and_safety(tmp_path):
    # Byte-identical trajectory files for identical seeds.
    spec = build_oneunit(FIG1_PARAMS)
    init = spec.lattice_state(0.0, 0.0)
    paths = []
    for name in ("a.csv", "b.csv"):
        traj = simulate(spec, init, t_end=200.0, seed=4242)
        path = tmp_path / name
        io.write_jump_csv(path, traj)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # Non-negativity over 1e6 jumps in each mode.
    for make, start in (
        (lambda: build_global(FIG1_PARAMS, 10), (0.01, 0.01)),
        (lambda: build_meanfield(FIG1_PARAMS), (0.0, 0.0)),
        (lambda: build_oneunit(FIG1_PARAMS), (0.0, 0.0)),
    ):
        mode_spec = make()
        traj = simulate(
            mode_spec, mode_spec.lattice_state(*start), max_jumps=1_000_000, seed=77
        )
        assert traj.n_events == 1_000_000
        assert traj.krs.min() >= 0 and traj.kns.min() >= 0

    # Estimator oracle: recover a known synthetic tail rate within 5%.
    rng = np.random.default_rng(90210)
    rate, a0 = 0.2, 10.0
    amplitudes = a0 - np.log(rng.random(10_000)) / rate
    fit = fit_exponential(amplitudes, a0)
    assert abs(fit.lambda_hat - rate) / rate <= 0.05
    print(
        "criterion 10: PASS - byte-identical files, 3 x 1e6 jumps non-negative, "
        f"synthetic rate recovered ({fit.lambda_hat:.4f} vs {rate})"
    )
