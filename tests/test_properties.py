"""Property tests over random finite parameters.

Examples are drawn from a fixed seed (``derandomize``), so the suite gives
the same verdict on every run.
"""

import math

import numpy as np
import pytest
from conftest import PARAM_GRID
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from spikesim import (
    JumpTrajectory,
    LatticeState,
    ModelParams,
    State,
    Termination,
    Trajectory,
    build_global,
    build_meanfield,
    build_oneunit,
    derive_path_seed,
    expected_drift,
    integrate,
    simulate,
    vector_field,
)
from spikesim.io import (
    _SLICE_ROWS,
    _meta_lines,
    read_trajectory_csv,
    write_jump_csv,
    write_ode_csv,
    write_pairs_csv,
    write_survival_csv,
)
from spikesim.jump import CHANNEL_LABELS
from spikesim.ode import (
    MAX_STORED_SAMPLES,
    IntegrationBlowupError,
    NegativeOvershootError,
    _floor_component,
)

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
    assert path.read_bytes() == _reference_bytes(path, _reference_write_jump_csv, traj)
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


# Reference implementations: the per-row CSV writers and the RK4 loop that
# calls model.vector_field at every stage.  The columnar writers and the
# inlined step do the same arithmetic, so they must give the same bytes and
# the same floats.


def _reference_write_ode_csv(path, traj, extra=None):
    meta = {"mode": "ds", "dt": traj.dt, "sample_every": traj.sample_every}
    if extra:
        meta.update(extra)
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(traj.params, meta):
            fh.write(line + "\n")
        fh.write("t,r,n\n")
        for t, r, n in zip(traj.t, traj.r, traj.n):
            fh.write(f"{float(t)!r},{float(r)!r},{float(n)!r}\n")


def _reference_write_jump_csv(path, traj):
    spec = traj.spec
    meta = {
        "mode": spec.kind.value,
        "n_units": spec.n_units,
        "seed": traj.seed,
        "t_end": traj.t_end,
        "terminated_by": traj.terminated_by.value,
    }
    if spec.anchor is not None:
        meta["anchor_r"] = spec.anchor.r
        meta["anchor_n"] = spec.anchor.n
    rs = traj.r_values()
    ns = traj.n_values()
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(spec.params, meta):
            fh.write(line + "\n")
        fh.write("t,r,n,channel\n")
        fh.write(f"{0.0!r},{traj.initial.r!r},{traj.initial.n!r},\n")
        for i in range(traj.n_events):
            fh.write(
                f"{float(traj.times[i])!r},{float(rs[i])!r},{float(ns[i])!r},"
                f"{CHANNEL_LABELS[traj.channels[i]]}\n"
            )


def _reference_write_survival_csv(path, grid, survival, params, extra=None):
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(params, extra):
            fh.write(line + "\n")
        fh.write("a,survival\n")
        for a, s in zip(grid, survival):
            fh.write(f"{float(a)!r},{float(s)!r}\n")


def _reference_write_pairs_csv(path, pairs, params, extra=None):
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(params, extra):
            fh.write(line + "\n")
        fh.write("plateau_length,amplitude\n")
        for length, amplitude in pairs:
            fh.write(f"{float(length)!r},{float(amplitude)!r}\n")


def _reference_bytes(path, write, *args) -> bytes:
    reference = path.with_name("reference_" + path.name)
    write(reference, *args)
    return reference.read_bytes()


def _any_floats(rng, size: int) -> np.ndarray:
    """Doubles from uniform bit patterns: every exponent, subnormals, signed
    zeros, infinities and NaNs included."""
    return rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)


# Row counts around the write slice: empty, short, and one and two slice
# boundaries crossed.
ROW_COUNTS = [0, 1, 7, _SLICE_ROWS - 1, _SLICE_ROWS, _SLICE_ROWS + 1, 2 * _SLICE_ROWS + 5]
# The rows come from a drawn seed, so shrinking the seed would not make a
# failing file smaller; it only reruns slow reference writers for minutes.
SLICED = settings(PROPERTY, max_examples=25,
                  phases=(Phase.explicit, Phase.reuse, Phase.generate))


@SLICED
@given(params=params_strategy, seed=st.integers(0, 2**32), rows=st.sampled_from(ROW_COUNTS))
def test_float_writers_match_the_row_loops(tmp_path_factory, params, seed, rows):
    rng = np.random.default_rng(seed)
    a, b, c = (_any_floats(rng, rows) for _ in range(3))
    extra = {"a0": 10.0, "seed": seed, "mode": "oneunit"}
    out = tmp_path_factory.mktemp("csv")

    traj = Trajectory(t=a, r=b, n=c, params=params, dt=1e-3, sample_every=3)
    write_ode_csv(out / "ode.csv", traj, extra)
    assert (out / "ode.csv").read_bytes() == _reference_bytes(
        out / "ode.csv", _reference_write_ode_csv, traj, extra)

    write_survival_csv(out / "survival.csv", a, b, params, extra)
    assert (out / "survival.csv").read_bytes() == _reference_bytes(
        out / "survival.csv", _reference_write_survival_csv, a, b, params, extra)

    pairs = list(zip(b.tolist(), c.tolist()))
    write_pairs_csv(out / "pairs.csv", pairs, params, extra)
    assert (out / "pairs.csv").read_bytes() == _reference_bytes(
        out / "pairs.csv", _reference_write_pairs_csv, pairs, params, extra)


@SLICED
@given(
    params=params_strategy,
    kind=st.sampled_from(["global", "meanfield", "oneunit"]),
    n_units=st.integers(1, 30),
    seed=st.integers(0, 2**32),
    rows=st.sampled_from(ROW_COUNTS),
    distinct=st.integers(1, 40),
    largest=st.sampled_from([1, 1_000, 2**31, 2**53]),
)
def test_jump_writer_matches_the_row_loop_on_sparse_lattices(
    tmp_path_factory, params, kind, n_units, seed, rows, distinct, largest
):
    # Few distinct lattice indices, spread up to ``largest``: the writer's
    # table of formatted values must not depend on how far apart they are.
    spec = _build(kind, params, n_units)
    rng = np.random.default_rng(seed)
    krs, kns = (rng.choice(rng.integers(0, largest, size=distinct, endpoint=True), rows)
                for _ in range(2))
    traj = JumpTrajectory(
        spec, spec.lattice_state(0.0, 0.0), seed, _any_floats(rng, rows), krs, kns,
        rng.integers(0, len(CHANNEL_LABELS), size=rows).astype(np.int8),
        Termination.TIME_HORIZON, 1.0,
    )
    path = tmp_path_factory.mktemp("csv") / "jump.csv"
    write_jump_csv(path, traj)
    assert path.read_bytes() == _reference_bytes(path, _reference_write_jump_csv, traj)


def _reference_integrate(params, initial, t_end, dt, sample_every=None):
    n_steps = max(1, round(t_end / dt))
    h = t_end / n_steps
    if sample_every is None:
        sample_every = max(1, math.ceil(n_steps / MAX_STORED_SAMPLES))
    ts, rs, ns = [0.0], [float(initial[0])], [float(initial[1])]
    r, n = rs[0], ns[0]
    clamps = 0
    half = 0.5 * h
    sixth = h / 6.0
    for step in range(1, n_steps + 1):
        k1r, k1n = vector_field(params, (r, n))
        k2r, k2n = vector_field(params, (r + half * k1r, n + half * k1n))
        k3r, k3n = vector_field(params, (r + half * k2r, n + half * k2n))
        k4r, k4n = vector_field(params, (r + h * k3r, n + h * k3n))
        r += sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        n += sixth * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
        if not (math.isfinite(r) and math.isfinite(n)):
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
            ts.append(step * h)
            rs.append(r)
            ns.append(n)
    return np.array(ts), np.array(rs), np.array(ns), clamps


def _assert_rk4_matches_vector_field(params, initial, t_end, dt, sample_every=None) -> int:
    """Both integrations give the same path and clamps, or both fail."""
    try:
        want = _reference_integrate(params, initial, t_end, dt, sample_every)
    except (IntegrationBlowupError, NegativeOvershootError) as exc:
        with pytest.raises(type(exc)) as got:
            integrate(params, initial, t_end, dt=dt, sample_every=sample_every)
        assert str(got.value) == str(exc)
        return 0
    traj = integrate(params, initial, t_end, dt=dt, sample_every=sample_every)
    for got, expected in zip((traj.t, traj.r, traj.n), want):
        assert np.array_equal(got, expected)
    assert traj.clamp_count == want[3]
    return traj.clamp_count


@pytest.mark.parametrize("params", PARAM_GRID)
def test_inlined_rk4_matches_vector_field_on_the_grid(params):
    for initial in (State(0.01, 0.01), State(3.0, 20.0)):
        _assert_rk4_matches_vector_field(params, initial, 5.0, 1e-2, sample_every=3)


@pytest.mark.parametrize("params, initial, dt", [
    (ModelParams(alpha=7.0, beta=0.05, gamma=0.01, p=0.0), State(0.0, 1e-10), 1e-2),
    (ModelParams(alpha=0.0, beta=0.05, gamma=0.1, p=7.0), State(0.0, 1e-12), 0.5),
])
def test_inlined_rk4_matches_vector_field_when_it_clamps(params, initial, dt):
    assert _assert_rk4_matches_vector_field(params, initial, 5.0, dt) > 0


@PROPERTY
@given(
    params=params_strategy,
    r0=st.floats(0.0, 50.0, **finite),
    n0=st.floats(0.0, 50.0, **finite),
    dt=st.sampled_from([1e-3, 1e-2, 0.1]),
    sample_every=st.sampled_from([None, 1, 7]),
)
def test_inlined_rk4_matches_vector_field(params, r0, n0, dt, sample_every):
    _assert_rk4_matches_vector_field(params, State(r0, n0), 2.0, dt, sample_every)
