"""A streamed jump run gives the statistics of the run held whole, byte for
byte.

``jump.simulate_chunks`` yields a run a chunk of events at a time, and
``spikes.ExcursionScan`` finds spikes and plateaus a chunk of samples at a
time, carrying an open run across chunk edges.  These tests hold the
streamed route to the whole-path one: a scan fed a series in any chunking
finds what ``detect_spikes`` and ``detect_plateaus`` find in it whole, a
stream's chunks are ``simulate``'s path, and the artifacts of the presets
that stream are the same bytes at any chunk size of the engine, on both
kernels.  ``tools/sanitize.py`` runs this file, so that the resumed loop
runs under the sanitizers at chunk sizes 1 and 7.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_properties import LEVELS, PROPERTY, finite, series_strategy

import spikesim.cli
from spikesim import (
    ModelParams,
    PathSeries,
    Termination,
    build_global,
    build_meanfield,
    build_oneunit,
    detect_plateaus,
    detect_spikes,
    simulate,
)
from spikesim import _compiled, jump
from spikesim.cli import main
from spikesim.spikes import ExcursionScan

# Engine chunk sizes: one event, a few, many, and the default.
CHUNKS = [1, 7, 4096, _compiled.CHUNK_EVENTS]


def _fed(scan, series: PathSeries, bounds: list[int]) -> np.recarray:
    """What ``scan`` finds in ``series`` fed the chunks between ``bounds``."""
    for lo, hi in zip(bounds, bounds[1:]):
        scan.feed(series.times[lo:hi], series.values[lo:hi])
    return scan.close(series.t_end)


@st.composite
def chunked_series(draw):
    """A series and the bounds of a chunking of it: one sample a chunk, or
    cuts anywhere, a repeated cut making an empty chunk."""
    series = draw(series_strategy())
    n = len(series.times)
    cuts = draw(st.one_of(st.just(list(range(n + 1))),
                          st.lists(st.integers(0, n), max_size=2 * n + 2)))
    return series, [0, *sorted(cuts), n]


def _series(values: list[float], step: bool, tail: float = 1.0) -> PathSeries:
    times = np.arange(float(len(values)))
    return PathSeries(times, np.array(values), times[-1] + (tail if step else 0.0), step)


@settings(PROPERTY, max_examples=300)
@given(case=chunked_series(),
       a0=st.one_of(st.sampled_from(LEVELS[1:]), st.floats(0.01, 15.0, **finite)),
       thr=st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 15.0, **finite)))
# A peak reached again after an edge; a run open across an edge, with its
# linear crossing between the two chunks; a run still open at the end.
@example(case=(_series([0.0, 12.0, 15.0, 11.0, 15.0, 0.0], True), [0, 3, 6]), a0=10.0, thr=0.0)
@example(case=(_series([0.0, 12.0, 15.0, 11.0, 15.0, 0.0], False), [0, 3, 6]), a0=10.0, thr=0.0)
@example(case=(_series([3.0, 12.0, 0.0, 14.0], False), [0, 1, 1, 3, 4]), a0=10.0, thr=2.0)
@example(case=(_series([0.0, 12.0, 13.0], True), [0, 2, 3]), a0=10.0, thr=12.0)
def test_a_scan_fed_in_chunks_finds_what_the_whole_series_holds(case, a0, thr):
    series, bounds = case
    for found, whole in ((_fed(ExcursionScan(a0, peaks=True, step=series.step), series, bounds),
                          detect_spikes(series, a0)),
                         (_fed(ExcursionScan(thr, peaks=False, step=series.step), series, bounds),
                          detect_plateaus(series, thr))):
        assert found.dtype == whole.dtype
        assert found.tobytes() == whole.tobytes()


@pytest.mark.parametrize("step", [True, False])
def test_a_peak_reached_again_after_an_edge_keeps_its_first_time(step):
    series = _series([0.0, 12.0, 15.0, 11.0, 15.0, 0.0, 15.0], step)
    (first, second) = _fed(ExcursionScan(10.0, peaks=True, step=step), series, [0, 3, 5, 6, 7])
    assert (first.t_peak, first.amplitude) == (2.0, 15.0)
    assert (second.t_peak, second.amplitude) == (6.0, 15.0)
    # A peak raised after the edge moves to the later sample, and then stays
    # at its first time.
    raised_again = _series([0.0, 12.0, 15.0, 16.0, 16.0, 0.0, 15.0], step)
    (raised, _) = _fed(ExcursionScan(10.0, peaks=True, step=step), raised_again, [0, 3, 4, 7])
    assert (raised.t_peak, raised.amplitude) == (3.0, 16.0)


def test_a_run_open_at_the_end_closes_at_the_horizon():
    (spike,) = _fed(ExcursionScan(10.0, peaks=True, step=True),
                    _series([0.0, 12.0, 13.0], True, tail=4.5), [0, 1, 2, 3])
    assert (spike.t_start, spike.t_peak, spike.amplitude, spike.t_end) == (1.0, 2.0, 13.0, 6.5)


@pytest.fixture(params=["in use", "python"])
def kernel(request, monkeypatch):
    """The engine in use, then the Python kernel in its place."""
    if request.param == "python":
        monkeypatch.setattr(jump, "_compiled_run", lambda: None)


# Runs stopped by the horizon, by the jump count, and by absorption.
RUNS = {
    "horizon": (lambda: build_oneunit(ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)),
                (0.01, 0.01), {"t_end": 30.0}),
    "jumps": (lambda: build_global(ModelParams(alpha=0.01, beta=0.7, gamma=2.0, p=7.0), 10),
              (0.01, 0.01), {"max_jumps": 500}),
    "absorbed": (lambda: build_oneunit(ModelParams(alpha=0.5, beta=1.0, gamma=2.0, p=0.0)),
                 (3.0, 2.0), {"t_end": 1e6}),
    "meanfield": (lambda: build_meanfield(ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)),
                  (0.01, 0.01), {"t_end": 20.0, "max_jumps": 100}),
}


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_stream_is_its_trajectory_in_chunks(name, chunk, monkeypatch):
    build, start, run = RUNS[name]
    spec = build()
    initial = spec.lattice_state(*start)
    traj = simulate(spec, initial, seed=3, **run)
    monkeypatch.setattr(_compiled, "CHUNK_EVENTS", chunk)
    stream = jump.simulate_chunks(spec, initial, seed=3, **run)
    assert stream.terminated_by is None and stream.t_end is None
    # Each chunk is copied before the next one overwrites it.
    chunks = [tuple(values.copy() for values in held) for held in stream]
    assert max(len(held[0]) for held in chunks) <= chunk
    for name_, joined in zip(jump.JumpChunk._fields, zip(*chunks)):
        assert np.concatenate(joined).tobytes() == getattr(traj, name_).tobytes()
    assert (stream.n_events, stream.terminated_by, stream.t_end) == (
        traj.n_events, traj.terminated_by, traj.t_end)
    if name == "absorbed":
        assert stream.terminated_by is Termination.ABSORBED


def _preset_files(outdir: Path) -> dict[str, bytes]:
    for figure in ("fig6", "fig7"):
        assert main(["preset", figure, "--outdir", str(outdir), "--t-end", "150"]) == 0
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


@pytest.fixture(scope="module")
def whole_path_files(tmp_path_factory):
    """fig6's and fig7's artifacts with every path simulated whole."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spikesim.cli, "simulate_chunks", simulate)
        return _preset_files(tmp_path_factory.mktemp("whole"))


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("chunk", CHUNKS)
def test_streamed_presets_write_the_whole_path_bytes(chunk, whole_path_files, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.setattr(_compiled, "CHUNK_EVENTS", chunk)
    streamed = _preset_files(tmp_path)
    capsys.readouterr()
    assert len(streamed) == 2 * 2 + 4 * 3  # survival and report; survival, pairs and report
    assert streamed == whole_path_files
