"""Property tests over random finite parameters.

Examples are drawn from a fixed seed (``derandomize``), so the suite gives
the same verdict on every run.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikesim import (
    LatticeState,
    ModelParams,
    State,
    Trajectory,
    build_global,
    build_meanfield,
    build_oneunit,
    derive_path_seed,
    expected_drift,
    simulate,
    vector_field,
)
from spikesim.io import read_trajectory_csv, write_jump_csv, write_ode_csv

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite = {"allow_nan": False, "allow_infinity": False}
params_strategy = st.builds(
    ModelParams,
    alpha=st.floats(0.0, 20.0, **finite),
    beta=st.floats(0.05, 20.0, **finite),
    gamma=st.floats(0.1, 500.0, **finite),
    p=st.floats(0.0, 20.0, **finite),
)


def _build(kind: str, params: ModelParams, n_units: int):
    if kind == "global":
        return build_global(params, n_units)
    if kind == "meanfield" and params.z > 0:
        return build_meanfield(params)
    return build_oneunit(params)


@PROPERTY
@given(
    params=params_strategy,
    kind=st.sampled_from(["global", "meanfield", "oneunit"]),
    n_units=st.integers(1, 30),
    r0=st.floats(0.0, 5.0, **finite),
    n0=st.floats(0.0, 20.0, **finite),
    seed=st.integers(0, 2**32),
)
def test_lattice_states_stay_non_negative(params, kind, n_units, r0, n0, seed):
    spec = _build(kind, params, n_units)
    traj = simulate(spec, spec.lattice_state(r0, n0), max_jumps=400, seed=seed)
    assert traj.n_events <= 400
    assert np.all(traj.krs >= 0) and np.all(traj.kns >= 0)
    steps = np.diff(np.concatenate(([traj.initial.kr], traj.krs)))
    assert np.all(np.abs(steps) <= 1)


@PROPERTY
@given(
    params=params_strategy,
    n_units=st.integers(1, 60),
    kr=st.integers(0, 5_000),
    kn=st.integers(0, 5_000),
)
def test_global_expected_drift_is_the_vector_field(params, n_units, kr, kn):
    spec = build_global(params, n_units)
    s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
    drift = expected_drift(spec, s)
    field = vector_field(params, State(s.r, s.n))
    # Each component sums five rate * increment terms; allow a few ulps of
    # the largest of them.
    scale = spec.total_rate(s) * max(float(spec.r_unit), float(spec.n_unit))
    for got, want in zip(drift, field):
        assert abs(got - want) <= 1e-12 * (1.0 + scale)


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**40), count=st.integers(1, 300))
def test_path_seeds_are_distinct_over_an_index_range(seed, start, count):
    seeds = [derive_path_seed(seed, k) for k in range(start, start + count)]
    assert len(set(seeds)) == count
    assert all(0 <= s < 2**64 for s in seeds)


@PROPERTY
@given(
    params=params_strategy,
    kind=st.sampled_from(["global", "meanfield", "oneunit"]),
    n_units=st.integers(1, 30),
    r0=st.floats(0.0, 5.0, **finite),
    n0=st.floats(0.0, 20.0, **finite),
    seed=st.integers(0, 2**32),
    max_jumps=st.integers(0, 300),
)
@example(params=ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0), kind="oneunit",
         n_units=1, r0=0.0, n0=0.0, seed=1, max_jumps=0)
def test_jump_csv_round_trip_is_exact(
    tmp_path_factory, params, kind, n_units, r0, n0, seed, max_jumps
):
    spec = _build(kind, params, n_units)
    traj = simulate(spec, spec.lattice_state(r0, n0), max_jumps=max_jumps, seed=seed)
    path = tmp_path_factory.mktemp("csv") / "jump.csv"
    write_jump_csv(path, traj)
    meta, columns = read_trajectory_csv(path)
    assert len(columns["t"]) == traj.n_events + 1  # the initial state is a row
    assert np.array_equal(columns["t"], traj.step_times())
    assert np.array_equal(columns["r"], traj.step_r())
    assert np.array_equal(columns["n"], traj.step_n())
    assert float(meta["t_end"]) == traj.t_end


@PROPERTY
@given(
    params=params_strategy,
    rows=st.lists(st.tuples(*[st.floats(**finite)] * 3), min_size=1, max_size=40),
)
def test_ode_csv_round_trip_is_exact(tmp_path_factory, params, rows):
    t, r, n = (np.array(column) for column in zip(*rows))
    traj = Trajectory(t=t, r=r, n=n, params=params, dt=1e-3, sample_every=1)
    path = tmp_path_factory.mktemp("csv") / "ode.csv"
    write_ode_csv(path, traj)
    _meta, columns = read_trajectory_csv(path)
    for name in ("t", "r", "n"):
        assert np.array_equal(columns[name], getattr(traj, name))
