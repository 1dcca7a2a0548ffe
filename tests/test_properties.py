"""Property tests over random finite parameters.

Examples are drawn from a fixed seed (``derandomize``), so the suite gives
the same verdict on every run.
"""

import dataclasses
import math
import re
import sys
from fractions import Fraction
from io import BytesIO
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from conftest import PARAM_GRID
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from test_lyapunov import whole_box_scan

from spikesim import (
    EventCapError,
    InsufficientDataError,
    JumpTrajectory,
    LatticeState,
    ModelParams,
    PathSeries,
    ProcessKind,
    State,
    Termination,
    Trajectory,
    build_global,
    build_meanfield,
    build_oneunit,
    derive_path_seed,
    detect_plateaus,
    detect_spikes,
    drift_via_generator,
    expected_drift,
    integrate,
    next_jump,
    pair_plateau_spike,
    simulate,
    tail_survival,
    vector_field,
)
from spikesim import _compiled, io, jump, lyapunov, ode
from spikesim.io import (
    _SLICE_ROWS,
    _meta_lines,
    read_trajectory_csv,
    write_jump_csv,
    write_ode_csv,
    write_pairs_csv,
    write_survival_csv,
)
from spikesim.jump import CHANNEL_LABELS, CHANNEL_STEPS, ProcessSpec, _make_table
from spikesim.ode import (
    MAX_STORED_SAMPLES,
    OVERSHOOT_LIMIT,
    IntegrationBlowupError,
    NegativeOvershootError,
)
from spikesim.spikes import _average_ranks

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
    try:
        traj = simulate(spec, spec.lattice_state(r0, n0), max_jumps=400, seed=seed)
    except ValueError as exc:
        # A run whose total rate falls to a subnormal rate constant (p near
        # 1e-309, say) draws a waiting time that overflows, and is refused, as
        # simulate documents.  Any other input must run.
        if not any(0 < value < sys.float_info.min for value in dataclasses.astuple(params)):
            raise
        assert "is not finite" in str(exc)
        return
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
    scale = sum(spec.channel_rates(s)) * max(float(spec.r_unit), float(spec.n_unit))
    for got, want in zip(drift, field):
        assert abs(got - want) <= 1e-12 * (1.0 + scale)


def _reference_channel_rates(spec, s, r, n):
    """Every rate of ``spec.table`` at (r, n), the physical values of ``s``,
    in its full form, all four terms and the divisor written out, and
    censored by the step itself: zero when the jump would leave the
    lattice.  For finite r, n >= 0 a zero term adds +0.0 and a divisor of
    one divides exactly, so this is bit for bit the rate with its zero
    terms skipped."""
    return [0.0 if s.kr + dkr < 0 or s.kn + dkn < 0
            else (k_rn * r * n + k_r * r + k_n * n + k_1) / div
            for (k_rn, k_r, k_n, k_1, div), (dkr, dkn) in zip(spec.table, CHANNEL_STEPS)]


def _reference_expected_drift(spec, s):
    """One scalar accumulation per component, channel by channel."""
    ru, nu = float(spec.r_unit), float(spec.n_unit)
    dr = dn = 0.0
    for (dkr, dkn), rate in zip(CHANNEL_STEPS, _reference_channel_rates(spec, s, s.r, s.n)):
        dr += rate * dkr * ru
        dn += rate * dkn * nu
    return dr, dn


def _reference_drift_via_generator(spec, s):
    g = spec.params.gamma
    ru, nu = float(spec.r_unit), float(spec.n_unit)
    total = 0.0
    for (dkr, dkn), rate in zip(CHANNEL_STEPS, _reference_channel_rates(spec, s, s.r, s.n)):
        total += rate * ((g + 1.0) * dkr * ru + dkn * nu)
    return total


lattice_index = st.one_of(st.integers(0, 2), st.integers(0, 5_000))


@PROPERTY
@given(
    params=params_strategy,
    kind=st.sampled_from(["global", "meanfield", "oneunit"]),
    n_units=st.integers(1, 30),
    kr=lattice_index,
    kn=lattice_index,
)
def test_rates_and_generator_sums_match_the_scalar_loops(params, kind, n_units, kr, kn):
    spec = _build(kind, params, n_units)
    s = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
    # channel_rates at the loops' products, the generator sums at the
    # correctly rounded state.
    assert spec.channel_rates(s) == _reference_channel_rates(
        spec, s, kr * float(spec.r_unit), kn * float(spec.n_unit))
    assert expected_drift(spec, s) == _reference_expected_drift(spec, s)
    if spec.kind is not ProcessKind.GLOBAL:
        assert drift_via_generator(spec, s) == _reference_drift_via_generator(spec, s)


# A table coefficient: zero (the term is left out), one (a bare variable)
# or any other positive value; a divisor: one (no division) or another.
coefficient = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 50.0, **finite))
divisor = st.one_of(st.just(1.0), st.floats(0.05, 20.0, **finite))
row_strategy = st.fixed_dictionaries(
    {"k_rn": coefficient, "k_r": coefficient, "k_n": coefficient, "k_1": coefficient,
     "div": divisor})
# Lattice edges (where the guards act) drawn often.
lattice_index = st.one_of(st.integers(0, 2), st.integers(0, 200))


def _outcome(spec, start, **run):
    """The trajectory of ``simulate``, or the message of its EventCapError
    or of its ValueError for event times that overflow to inf."""
    try:
        return simulate(spec, start, **run)
    except (EventCapError, ValueError) as exc:
        return str(exc)


# The library's loop, row formatter and row reader, where it builds and passes
# its check (a library refused here fails the tests that it runs wherever it
# builds).
COMPILED_RUN = jump._compiled_run()
COMPILED_FORMATTER = io._compiled_formatter()
COMPILED_READER = io._compiled_reader()


@pytest.mark.skipif(COMPILED_RUN is None, reason="no compiled jump engine here")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(row_strategy, min_size=5, max_size=5),
    units=st.tuples(st.integers(1, 100), st.integers(1, 30)),
    kr=lattice_index,
    kn=lattice_index,
    seed=st.integers(0, 2**32),
    t_end=st.one_of(st.none(), st.floats(0.01, 50.0, **finite)),
    max_jumps=st.integers(0, 300),
    max_events=st.integers(0, 400),
    chunk=st.integers(1, 40),
)
# The one-unit table at alpha = 0 and p = 5e-324 from (0, 0): the uniform
# lands on the top edge of a subnormal total, past which the leak's rate is 0.
@example(rows=[{"k_rn": 1.0, "k_r": 0.0, "k_n": 0.0, "k_1": 0.0, "div": 1.0},
               {"k_rn": 0.0, "k_r": 0.0, "k_n": 0.0, "k_1": 0.0, "div": 1.0},
               {"k_rn": 0.0, "k_r": 0.0, "k_n": 1.0, "k_1": 0.0, "div": 1.0},
               {"k_rn": 0.0, "k_r": 0.0, "k_n": 0.0, "k_1": 5e-324, "div": 1.0},
               {"k_rn": 0.0, "k_r": 0.0, "k_n": 1.0, "k_1": 0.0, "div": 1.0}],
         units=(100, 1), kr=0, kn=0, seed=0, t_end=None, max_jumps=3, max_events=400, chunk=1)
def test_compiled_and_python_kernels_draw_the_same_stream(
    rows, units, kr, kn, seed, t_end, max_jumps, max_events, chunk
):
    spec = ProcessSpec(ModelParams(alpha=0.01, beta=1.0, gamma=float(units[0]), p=7.0),
                       ProcessKind.ONEUNIT, _make_table(*rows),
                       r_unit=Fraction(1, units[0]), n_unit=Fraction(1, units[1]))
    start = LatticeState(kr, kn, spec.r_unit, spec.n_unit)
    run = {"t_end": t_end, "max_jumps": max_jumps, "seed": seed, "max_events": max_events}
    # Every run on the compiled loop in chunks of ``chunk`` events, so that
    # runs and the event cap cross chunk boundaries.
    with mock.patch.object(jump, "_compiled_run", lambda: COMPILED_RUN), \
            mock.patch.object(_compiled, "CHUNK_EVENTS", chunk):
        compiled = _outcome(spec, start, **run)
        compiled_step = next_jump(spec, start, np.random.default_rng(seed))
    with mock.patch.object(jump, "_compiled_run", lambda: None):
        python = _outcome(spec, start, **run)
        python_step = next_jump(spec, start, np.random.default_rng(seed))
    assert compiled_step == python_step
    if isinstance(python, str):
        assert compiled == python
        return
    assert np.array_equal(compiled.times, python.times)
    assert np.array_equal(compiled.channels, python.channels)
    assert np.array_equal(compiled.krs, python.krs)
    assert np.array_equal(compiled.kns, python.kns)
    assert compiled.terminated_by == python.terminated_by
    assert compiled.t_end == python.t_end


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
    formatter=st.sampled_from([None, COMPILED_FORMATTER]),
)
@example(params=ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0), kind="oneunit",
         n_units=1, r0=0.0, n0=0.0, seed=1, max_jumps=0, formatter=COMPILED_FORMATTER)
def test_jump_csv_round_trip_is_exact(
    tmp_path_factory, params, kind, n_units, r0, n0, seed, max_jumps, formatter
):
    spec = _build(kind, params, n_units)
    traj = simulate(spec, spec.lattice_state(r0, n0), max_jumps=max_jumps, seed=seed)
    path = tmp_path_factory.mktemp("csv") / "jump.csv"
    # ``formatter`` None: the writer's own row loop, its fallback.
    with mock.patch.object(io, "_compiled_formatter", lambda: formatter):
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
    rs = traj.step_r()[1:]
    ns = traj.step_n()[1:]
    r0 = float(np.int64(traj.initial.kr) * float(spec.r_unit))
    n0 = float(np.int64(traj.initial.kn) * float(spec.n_unit))
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(spec.params, meta):
            fh.write(line + "\n")
        fh.write("t,r,n,channel\n")
        fh.write(f"{0.0!r},{r0!r},{n0!r},\n")
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


# Values that uniform bit patterns almost never give.
EDGE_FLOATS = np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                        2.225073858507201e-308, 1.7976931348623157e308, 0.1, 1 / 3,
                        0.30000000000000004, 1e16, 9007199254740993.0, 1e-4, 1e-5])


def _any_floats(rng, size: int) -> np.ndarray:
    """Doubles from uniform bit patterns: every exponent, subnormals, signed
    zeros, infinities and NaNs included, with one value in eight an edge
    value (NaN, infinities, signed zeros, subnormals, 17-digit values and
    the switches to exponent notation)."""
    values = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    edge = rng.random(size) < 1 / 8
    values[edge] = rng.choice(EDGE_FLOATS, size=int(edge.sum()))
    return values


# Row counts around the write slice: empty, short, and one and two slice
# boundaries crossed.
ROW_COUNTS = [0, 1, 7, _SLICE_ROWS - 1, _SLICE_ROWS, _SLICE_ROWS + 1, 2 * _SLICE_ROWS + 5]
# The rows come from a drawn seed, so shrinking the seed would not make a
# failing file smaller; it only reruns slow reference writers for minutes.
SLICED = settings(PROPERTY, max_examples=25,
                  phases=(Phase.explicit, Phase.reuse, Phase.generate))


@SLICED
@given(
    params=params_strategy,
    seed=st.integers(0, 2**32),
    rows=st.one_of(st.sampled_from(ROW_COUNTS), st.integers(_SLICE_ROWS - 1, 2 * _SLICE_ROWS + 5)),
    formatter=st.sampled_from([None, COMPILED_FORMATTER]),
)
def test_float_writers_match_the_row_loops(tmp_path_factory, params, seed, rows, formatter):
    rng = np.random.default_rng(seed)
    a, b, c = (_any_floats(rng, rows) for _ in range(3))
    extra = {"a0": 10.0, "seed": seed, "mode": "oneunit"}
    out = tmp_path_factory.mktemp("csv")

    traj = Trajectory(t=a, r=b, n=c, params=params, dt=1e-3, sample_every=3)
    pairs = list(zip(b.tolist(), c.tolist()))
    # ``formatter`` None: the writers' own row loop, their fallback.
    with mock.patch.object(io, "_compiled_formatter", lambda: formatter):
        write_ode_csv(out / "ode.csv", traj, extra)
        write_survival_csv(out / "survival.csv", a, b, params, extra)
        write_pairs_csv(out / "pairs.csv", pairs, params, extra)
    assert (out / "ode.csv").read_bytes() == _reference_bytes(
        out / "ode.csv", _reference_write_ode_csv, traj, extra)
    assert (out / "survival.csv").read_bytes() == _reference_bytes(
        out / "survival.csv", _reference_write_survival_csv, a, b, params, extra)
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
    formatter=st.sampled_from([None, COMPILED_FORMATTER]),
)
def test_jump_writer_matches_the_row_loop_on_sparse_lattices(
    tmp_path_factory, params, kind, n_units, seed, rows, distinct, largest, formatter
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
    with mock.patch.object(io, "_compiled_formatter", lambda: formatter):
        write_jump_csv(path, traj)
    assert path.read_bytes() == _reference_bytes(path, _reference_write_jump_csv, traj)


def _float_bits(values) -> np.ndarray:
    """The bits of float64 ``values``, each NaN as the one NaN a CSV reads
    back as (the writers write every NaN as ``nan``)."""
    values = np.array(values, dtype=np.float64)
    values[np.isnan(values)] = math.nan
    return values.view(np.uint64)


@pytest.mark.skipif(COMPILED_READER is None, reason="no compiled library here")
@SLICED
@given(
    params=params_strategy,
    seed=st.integers(0, 2**32),
    rows=st.sampled_from(ROW_COUNTS),
    kind=st.sampled_from(["ode", "jump"]),
)
def test_any_float_reads_back_to_the_bit_on_both_readers(tmp_path_factory, params, seed, rows,
                                                         kind):
    # Uniform bit patterns and edge values: subnormals, signed zeros, nan
    # and infinities, in every column the writers write.
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("csv") / "path.csv"
    if kind == "ode":
        t, r, n = (_any_floats(rng, rows) for _ in range(3))
        write_ode_csv(path, Trajectory(t=t, r=r, n=n, params=params, dt=1e-3, sample_every=1))
    else:
        spec = build_oneunit(params)
        traj = JumpTrajectory(
            spec, spec.lattice_state(0.0, 0.0), seed, _any_floats(rng, rows),
            *rng.integers(0, 2**53, size=(2, rows), endpoint=True),
            rng.integers(0, len(CHANNEL_LABELS), size=rows).astype(np.int8),
            Termination.TIME_HORIZON, 1.0)
        write_jump_csv(path, traj)
        t, r, n = traj.step_times(), traj.step_r(), traj.step_n()
    with mock.patch.object(io, "_compiled_reader", lambda: COMPILED_READER):
        compiled = io._read_compiled(path)
    assert compiled is not None  # the file is the writers', so the reader read it
    loadtxt = io._read_text(path)
    assert compiled[0] == loadtxt[0]
    for name, written in zip("trn", (t, r, n)):
        assert np.array_equal(compiled[1][name].view(np.uint64), _float_bits(written))
        assert np.array_equal(loadtxt[1][name].view(np.uint64), _float_bits(written))


@st.composite
def decimal_strings(draw) -> str:
    """-?D+(.D+)?(e[+-]?D+)? with 1 to 25 significant digits, leading zeros
    or none, and no exponent or one in -350 .. 320."""
    digits = str(draw(st.integers(1, 10**25 - 1)))
    point = draw(st.integers(0, len(digits)))
    text = (digits[:point] or "0") + ("." + digits[point:] if point < len(digits) else "")
    exponent = draw(st.one_of(st.none(), st.integers(-350, 320)))
    if exponent is not None:
        text += f"e{exponent:+d}" if draw(st.booleans()) else f"e{exponent}"
    return "-" + text if draw(st.booleans()) else text


@pytest.mark.skipif(COMPILED_READER is None, reason="no compiled library here")
@settings(PROPERTY, max_examples=300)
@given(cells=st.lists(decimal_strings(), min_size=1, max_size=50))
@example(cells=["9007199254740993", "2.2250738585072011e-308", "4.9406564584124654e-324",
                "1e23"])
def test_decimal_strings_read_as_float_reads_them(cells):
    text = "".join(f"{cell},{cell},label\n" for cell in cells).encode("ascii")
    columns = COMPILED_READER(BytesIO(text), [0, 1, -1], len(text))
    assert columns is not None
    expected = np.array([float(cell) for cell in cells]).view(np.uint64)
    for column in columns:
        assert np.array_equal(column.view(np.uint64), expected)


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
        for name, value in (("r", r), ("n", n)):
            if value < OVERSHOOT_LIMIT:
                raise NegativeOvershootError(f"{name} = {value:.6g} below overshoot limit "
                                             f"at step {step} (t = {step * h:.6g})")
        if r < 0.0:
            r = 0.0
            clamps += 1
        if n < 0.0:
            n = 0.0
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


# The library's RK4 loop, where it builds and passes its check.
COMPILED_RK4 = ode._compiled_rk4()


def _rk4_outcome(rk4, params, initial, t_end, dt, sample_every):
    """``integrate`` run by ``rk4`` (None: the Python loop): the samples and
    the clamp count, or the type and message of the error it raised."""
    with mock.patch.object(ode, "_compiled_rk4", lambda: rk4):
        try:
            traj = integrate(params, initial, t_end, dt=dt, sample_every=sample_every)
        except (IntegrationBlowupError, NegativeOvershootError) as exc:
            return type(exc), str(exc)
    return traj.t, traj.r, traj.n, traj.clamp_count


# Steps too long for stiff parameters and starts far from the fixed point
# are drawn often: they overshoot below the limit or blow up.
stiff_params_strategy = st.builds(
    ModelParams,
    alpha=st.floats(0.0, 20.0, **finite),
    beta=st.one_of(st.floats(0.001, 0.1, **finite), st.floats(0.05, 20.0, **finite)),
    gamma=st.one_of(st.floats(0.001, 0.1, **finite), st.floats(0.1, 500.0, **finite)),
    p=st.one_of(st.just(0.0), st.floats(0.0, 20.0, **finite)),
)
rk4_start = st.one_of(st.sampled_from([0.0, -0.0, 1e-10]), st.floats(0.0, 50.0, **finite),
                      st.floats(0.0, 1e200, **finite))


@pytest.mark.skipif(COMPILED_RK4 is None, reason="no compiled library here")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    params=stiff_params_strategy,
    r0=rk4_start,
    n0=rk4_start,
    t_end=st.floats(0.01, 10.0, **finite),
    dt=st.sampled_from([1e-3, 1e-2, 0.1, 0.5, 2.0]),
    sample_every=st.one_of(st.none(), st.integers(1, 50)),
)
def test_compiled_and_python_rk4_agree(params, r0, n0, t_end, dt, sample_every):
    run = (params, State(r0, n0), t_end, min(dt, t_end), sample_every)
    compiled = _rk4_outcome(COMPILED_RK4, *run)
    python = _rk4_outcome(None, *run)
    assert len(compiled) == len(python)
    if len(python) == 2:  # both raised
        assert compiled == python
        return
    for got, expected in zip(compiled[:3], python[:3]):
        assert np.array_equal(got, expected)
    assert compiled[3] == python[3]


# beta is never 1, so the leak channel divides; alpha = 0 and p = 0 leave
# channels with no term at all.  beta and gamma near the smallest normal
# float overflow the rates: the drift is then NaN or inf at some states.
scan_params_strategy = st.one_of(
    st.builds(
        ModelParams,
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 20.0, **finite)),
        beta=st.floats(0.05, 20.0, **finite).filter(lambda beta: beta != 1.0),
        gamma=st.floats(0.1, 500.0, **finite),
        p=st.one_of(st.just(0.0), st.floats(0.0, 20.0, **finite)),
    ),
    st.builds(ModelParams, alpha=st.just(0.01), beta=st.sampled_from([1e-308, 1e-300]),
              gamma=st.sampled_from([3e-308, 1e-300, 1.0]), p=st.just(7.0)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    params=scan_params_strategy,
    kind=st.sampled_from(["oneunit", "meanfield", "probe table", "random table", "c_y < 0"]),
    rows=st.lists(row_strategy, min_size=5, max_size=5),
    box=st.tuples(st.integers(1, 150), st.integers(1, 150)),
    epsilon=st.floats(1e-12, 10.0, **finite),
    tie=st.one_of(st.none(), st.tuples(st.integers(0, 10**6), st.sampled_from([-1, 0, 1]))),
    decay=st.tuples(st.booleans(), st.floats(0.0, 20.0, **finite),
                    st.floats(-10.0, -1e-3, **finite)),
)
# Absorption and leak rates of 1.5e306 kn and 3e306 kn: the drift falls
# along kn, but the two terms overflow with opposite signs at kn >= 120 (a
# NaN drift), while the bound's slope stays finite.
@example(params=ModelParams(alpha=0.01, beta=1.0, gamma=1.0, p=7.0), kind="random table",
         rows=[{"k_rn": 0.0, "k_r": 0.0, "k_n": k_n, "k_1": k_1, "div": 1.0}
               for k_n, k_1 in ((0.0, 0.0), (0.0, 0.0), (1.5e306, 0.0), (0.0, 1.0), (3e306, 0.0))],
         box=(3, 150), epsilon=0.1, tie=None, decay=(True, 0.0, -1.0))
# Pumping, and a leak of kn + 10 guarded at kn = 0: the affine drift is
# -8 - kn along the rows kr >= 1, but the drift at kn = 0 is +2.
@example(params=ModelParams(alpha=1.0, beta=1.0, gamma=1.0, p=0.0), kind="random table",
         rows=[{"k_rn": 0.0, "k_r": 0.0, "k_n": k_n, "k_1": k_1, "div": 1.0}
               for k_n, k_1 in ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 10.0))],
         box=(3, 5), epsilon=0.1, tie=None, decay=(True, 0.0, -1.0))
# A drift that rises along kn, -10 + kn / 2 in the rows kr >= 1, so that
# only the last state of each row is a violation.
@example(params=ModelParams(alpha=1.0, beta=1.0, gamma=1.0, p=0.0), kind="random table",
         rows=[{"k_rn": 0.0, "k_r": 0.0, "k_n": k_n, "k_1": k_1, "div": 1.0}
               for k_n, k_1 in ((0.0, 10.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.0), (0.0, 0.0))],
         box=(3, 20), epsilon=0.1, tie=None, decay=(True, 0.0, -1.0))
# epsilon one ulp off -drift at a state where the affine drift rounds to
# the other side of -epsilon (found by a seeded search).
@example(params=ModelParams(alpha=0.0, beta=3.720912502507677, gamma=378.45180048436754,
                            p=7.079714106579512),
         kind="probe table",
         rows=[{"k_rn": 0.0, "k_r": 0.0, "k_n": 0.0, "k_1": 0.0, "div": 1.0}] * 5,
         box=(12, 63), epsilon=0.8850388382303215, tie=None, decay=(True, 0.0, -1.0))
def test_the_scan_equals_the_whole_box_evaluation(params, kind, rows, box, epsilon, tie, decay):
    # The probe table has a row whose drift rises along kn, guards on kn and
    # divisors; a random table, under the one-unit decay, has any of these.
    # "c_y < 0" is a decay that need not be monotone along a row.  A tie
    # sets epsilon at -drift of a state of the box, or one ulp off it.
    mode = ProcessKind.MEANFIELD if kind == "meanfield" else ProcessKind.ONEUNIT
    if kind in ("oneunit", "meanfield"):
        assume(params.z > 0 and lyapunov.ergodicity_condition(mode, params).holds)
    spec = _build(mode.value, params, 1)
    if kind == "probe table":
        spec = jump._probe_spec()
    elif kind == "random table":
        spec = dataclasses.replace(spec, table=_make_table(*rows))
    if kind != "c_y < 0":
        decay = lyapunov._decay_coefficients(mode, params)
    weights = lyapunov._f_weights(spec)
    if tie is not None:
        bound = lyapunov.membership_bound(params, epsilon)
        drifts = whole_box_scan(spec, weights, decay, bound, math.inf, box)[2]
        drifts = drifts[np.isfinite(drifts) & (drifts < 0.0)]
        if len(drifts):
            epsilon = float(np.nextafter(-drifts[tie[0] % len(drifts)], tie[1] * math.inf)
                            if tie[1] else -drifts[tie[0] % len(drifts)])
    scan = (spec, weights, decay, lyapunov.membership_bound(params, epsilon), epsilon, box)
    got, expected = lyapunov._scan(*scan), whole_box_scan(*scan)
    # A's pairs, the violations' pairs, and their drifts bit for bit.
    for scanned, evaluated in zip(got, expected, strict=True):
        assert scanned.dtype == evaluated.dtype and scanned.shape == evaluated.shape
        assert scanned.tobytes() == evaluated.tobytes()
    # A drift that is not finite names the first such state.
    _in_a, violations, drifts = expected
    if kind in ("oneunit", "meanfield") and not np.isfinite(drifts).all():
        first = tuple(violations[np.argmin(np.isfinite(drifts))].tolist())
        with pytest.raises(ValueError, match=re.escape(f"the drift at (kr, kn) = {first} is ")):
            lyapunov.scan_drift_condition(mode, params, epsilon, box)


# Reference implementations: the per-run spike and plateau loops, the
# per-plateau pairing, the tie-block ranks and the amplitude-by-grid survival
# matrix.  The array versions do the same arithmetic, so they must give the
# same rows and the same floats.


class Spike(NamedTuple):
    t_peak: float
    amplitude: float
    t_start: float
    t_end: float


class Plateau(NamedTuple):
    t_start: float
    t_end: float
    length: float


def _table(records, record_type):
    """The record array of ``record_type`` rows, as the detectors return."""
    columns = np.array(records, float).reshape(-1, len(record_type._fields)).T
    return np.rec.fromarrays(columns, names=record_type._fields)


def _rows(table):
    """A record array's or a pairs array's rows as tuples."""
    return [tuple(row) for row in table.tolist()]


def _reference_runs(mask):
    if len(mask) == 0:
        return []
    diff = np.diff(mask.astype(np.int8))
    starts = list(np.flatnonzero(diff == 1) + 1)
    ends = list(np.flatnonzero(diff == -1))
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        ends.append(len(mask) - 1)
    return list(zip(starts, ends))


def _reference_crossing_time(t0, v0, t1, v1, level):
    if v1 == v0:
        return float(t1)
    return float(t0 + (level - v0) / (v1 - v0) * (t1 - t0))


def _reference_run_ends(series, first, last, level):
    t, v = series.times, series.values
    if series.step or first == 0:
        t_start = float(t[first])
    else:
        t_start = _reference_crossing_time(t[first - 1], v[first - 1], t[first], v[first], level)
    if last + 1 < len(t):
        if series.step:
            t_end = float(t[last + 1])
        else:
            t_end = _reference_crossing_time(t[last], v[last], t[last + 1], v[last + 1], level)
    else:
        t_end = series.t_end
    return t_start, t_end


def _reference_detect_spikes(series, a0):
    t, v = series.times, series.values
    records = []
    for first, last in _reference_runs(v > a0):
        seg = v[first : last + 1]
        t_start, t_end = _reference_run_ends(series, first, last, a0)
        records.append(Spike(t_peak=float(t[first + int(np.argmax(seg))]),
                             amplitude=float(seg.max()), t_start=t_start, t_end=t_end))
    return records


def _reference_detect_plateaus(series, thr):
    records = []
    for first, last in _reference_runs(series.values <= thr):
        t_start, t_end = _reference_run_ends(series, first, last, thr)
        if t_end > t_start:
            records.append(Plateau(t_start=t_start, t_end=t_end, length=t_end - t_start))
    return records


def _reference_pair_plateau_spike(plateaus, spikes):
    if not plateaus or not spikes:
        return []
    spike_starts = np.array([s.t_start for s in spikes])
    best = {}
    for plateau in plateaus:
        idx = int(np.searchsorted(spike_starts, plateau.t_end, side="left"))
        if idx >= len(spikes):
            continue
        prev = best.get(idx)
        if prev is None or plateau.t_end > prev.t_end:
            best[idx] = plateau
    return [(best[idx].length, spikes[idx].amplitude) for idx in sorted(best)]


def _reference_average_ranks(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _reference_tail_survival(amplitudes, a0):
    amps = np.asarray(amplitudes, dtype=np.float64)
    amps = amps[amps > a0]
    grid = np.concatenate(([a0], np.unique(amps)))
    return grid, (amps[None, :] > grid[:, None]).mean(axis=1)


# Levels and values drawn from one small set, so that samples sit on the
# levels and runs open at the first and last sample are common; time steps
# of zero give equal consecutive times.
LEVELS = [0.0, 1.0, 2.0, 10.0]
level_value = st.one_of(st.sampled_from(LEVELS + [3.0, 12.0]), st.floats(0.0, 15.0, **finite))
time_step = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 4.0, **finite))


@st.composite
def series_strategy(draw):
    values = draw(st.lists(level_value, min_size=1, max_size=40))
    steps = draw(st.lists(time_step, min_size=len(values) - 1, max_size=len(values) - 1))
    times = np.cumsum([draw(st.floats(0.0, 2.0, **finite))] + steps)
    step = draw(st.booleans())
    # A step path is valid past its last jump; a linear one ends there.
    tail = draw(st.sampled_from([0.0, 0.5, 2.0])) if step else 0.0
    return PathSeries(times=times, values=np.array(values), t_end=float(times[-1]) + tail,
                      step=step)


LOOPS = settings(PROPERTY, max_examples=200)


@LOOPS
@given(series=series_strategy(),
       a0=st.one_of(st.sampled_from(LEVELS[1:]), st.floats(0.01, 15.0, **finite)),
       thr=st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 15.0, **finite)))
@example(series=PathSeries(np.array([0.0]), np.array([12.0]), 1.0, step=True), a0=10.0,
         thr=0.0)
@example(series=PathSeries(np.array([0.0]), np.array([0.0]), 0.0, step=False), a0=10.0,
         thr=0.0)
@example(series=PathSeries(np.array([0.0, 1.0, 1.0, 2.0, 3.0]),
                           np.array([12.0, 0.0, 12.0, 15.0, 0.0]), 3.0, step=False),
         a0=10.0, thr=0.0)
def test_excursion_scan_matches_the_run_loops(series, a0, thr):
    spikes = _reference_detect_spikes(series, a0)
    plateaus = _reference_detect_plateaus(series, thr)
    found_spikes = detect_spikes(series, a0)
    found_plateaus = detect_plateaus(series, thr)
    assert _rows(found_spikes) == spikes
    assert _rows(found_plateaus) == plateaus
    assert _rows(pair_plateau_spike(found_plateaus, found_spikes)) == (
        _reference_pair_plateau_spike(plateaus, spikes))


@LOOPS
@given(ends=st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 4.0, 9.0]), max_size=12),
       starts=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]), max_size=8))
def test_pairing_matches_the_plateau_loop_on_tied_and_unordered_ends(ends, starts):
    # Plateaus in any order with equal ends; spikes time-ordered, as
    # detect_spikes gives them, with equal starts.
    plateaus = [Plateau(t_start=end - k - 1.0, t_end=end, length=k + 1.0)
                for k, end in enumerate(ends)]
    spikes = [Spike(t_peak=start, amplitude=k + 20.0, t_start=start, t_end=start + 0.5)
              for k, start in enumerate(sorted(starts))]
    pairs = pair_plateau_spike(_table(plateaus, Plateau), _table(spikes, Spike))
    assert _rows(pairs) == _reference_pair_plateau_spike(plateaus, spikes)


@LOOPS
@given(x=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                            st.floats(-1e6, 1e6, **finite)), min_size=1, max_size=40))
def test_average_ranks_match_the_tie_block_loop(x):
    x = np.array(x)
    assert np.array_equal(_average_ranks(x), _reference_average_ranks(x))


@LOOPS
@given(amps=st.lists(st.one_of(st.sampled_from([10.0, 11.0, 12.0]),
                               st.floats(0.0, 40.0, **finite)), min_size=1, max_size=60),
       a0=st.sampled_from([0.0, 10.0, 11.0]))
def test_tail_survival_matches_the_grid_matrix(amps, a0):
    if not any(a > a0 for a in amps):
        with pytest.raises(InsufficientDataError):
            tail_survival(amps, a0)
        return
    grid, survival = tail_survival(amps, a0)
    want_grid, want_survival = _reference_tail_survival(amps, a0)
    assert np.array_equal(grid, want_grid)
    assert np.array_equal(survival, want_survival)


def _unique_tail_survival(amplitudes, a0):
    """The tail grid as np.unique gives it, and the survival as a
    searchsorted over the sorted sample gives it."""
    amps = np.asarray(amplitudes, dtype=np.float64)
    amps = amps[amps > a0]
    grid = np.concatenate(([a0], np.unique(amps)))
    return grid, (len(amps) - np.searchsorted(np.sort(amps), grid, side="right")) / len(amps)


@LOOPS
@given(amps=st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 10.0, 11.0, 12.0]),
                               st.floats(-5.0, 40.0, **finite)), min_size=1, max_size=60),
       a0=st.sampled_from([-1.0, 0.0, 10.0, 11.0, 12.0]), as_array=st.booleans())
@example(amps=[12.0, 11.0, 12.0, 10.5, 12.0], a0=10.0, as_array=False)  # ties at the maximum
@example(amps=[11.0, 10.0, 11.0, 11.0], a0=10.0, as_array=True)  # one distinct value, and a0
@example(amps=[0.0, -0.0, 1.0, -0.0], a0=-1.0, as_array=False)  # zeros of both signs
def test_tail_grid_is_np_uniques_bit_for_bit(amps, a0, as_array):
    if not any(a > a0 for a in amps):
        return
    grid, survival = tail_survival(np.array(amps) if as_array else amps, a0)
    want_grid, want_survival = _unique_tail_survival(amps, a0)
    assert grid.tobytes() == want_grid.tobytes()
    assert survival.tobytes() == want_survival.tobytes()


def test_a_failing_property_reports_its_falsifying_example(pytester, pytestconfig):
    # Under this suite's warning filters, where any warning is an error.
    filters = "".join(f"\n    {entry}" for entry in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1)
    assert "Falsifying example: test_fails(" in output
