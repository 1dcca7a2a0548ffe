"""A path CSV written as its run goes is the held path's file, byte for byte.

``cli.analyse_group`` runs the stream that ``simulate_run`` makes once: the
RK4 or direct-method loop writes the rows of what it computes into a slice,
and each slice goes straight to the path CSV, begun under a temporary name
and put in place once the run has ended.  These tests hold
that route to the held-path writers: every artifact is the same bytes at
slices of 1, 7 and 1024 rows, on both kernels; a jump run that does not end
at its horizon rebuilds its header once; a run that fails leaves no file and
keeps the file it would have replaced; an ``--out`` that is a symbolic link,
a hard link or a FIFO is written where the held-path writer wrote it; and a
streamed run's memory does not grow with its path.  ``tools/sanitize.py`` runs this file.
"""

import contextlib
import errno
import os
import stat
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import spikesim.cli
from spikesim import ModelParams, State, io, jump, ode
from spikesim.cli import RunConfig, analyse_group, main, simulate_run

P100 = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
P2 = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
START = State(0.01, 0.01)

# One run of each kind, each writing its path CSV; the jump runs write
# survival, pairs and reports too, and the one-unit run compares its path
# with the ODE, so that its stream is also held whole.
RUNS = {
    "ds": RunConfig(params=P100, mode="ds", initial=START, t_end=20.0, label="ds"),
    "global": RunConfig(params=P2, mode="global", n_units=10, initial=START, t_end=60.0, seed=3,
                        a0=2.0, thr=2.0, out="global.csv", label="global"),
    "meanfield": RunConfig(params=P100, mode="meanfield", initial=START, t_end=80.0, seed=4,
                           a0=10.0, out="meanfield.csv", label="meanfield"),
    "oneunit": RunConfig(params=P2, mode="oneunit", t_end=300.0, seed=2, a0=10.0, thr=10.0,
                         lln_reference=True, out="oneunit.csv", label="oneunit"),
}
# Runs that end other than at their horizon: absorbed, at their jump count,
# and bounded by a jump count alone.
ENDS = {
    "absorbed": RunConfig(params=ModelParams(alpha=0.5, beta=1.0, gamma=2.0, p=0.0),
                          mode="oneunit", initial=State(3.0, 2.0), t_end=1e6, seed=3,
                          label="absorbed"),
    "max_jumps": RunConfig(params=P2, mode="global", n_units=10, initial=START, t_end=100.0,
                           max_jumps=500, seed=5, label="max_jumps"),
    "no_horizon": RunConfig(params=P100, mode="meanfield", initial=START, t_end=None,
                            max_jumps=3000, seed=6, label="no_horizon"),
}


@pytest.fixture(params=["in use", "python"])
def kernel(request, monkeypatch):
    """The library's loops where it is in use, then the Python twins."""
    if request.param == "python":
        monkeypatch.setattr(jump, "_compiled_run", lambda: None)
        monkeypatch.setattr(ode, "_compiled_rk4", lambda: None)


def _files(outdir: Path, config: RunConfig) -> dict[str, bytes]:
    """The artifacts of ``config``'s run, streamed, by name."""
    outdir.mkdir()
    config = replace(config, out=config.out and str(outdir / config.out))
    written = list(analyse_group([config], simulate_run(config), outdir))
    assert sorted(written) == sorted(outdir.iterdir())  # no temporary file is left
    return {path.name: path.read_bytes() for path in written}


def _held_files(outdir: Path, config: RunConfig) -> dict[str, bytes]:
    """The artifacts of ``config``'s run from its path held whole
    (``ode.integrate`` or ``jump.simulate``): the path CSV from
    ``io.write_ode_csv`` or ``io.write_jump_csv``, the others from
    ``analyse_group`` given the held path."""
    outdir.mkdir()
    config = replace(config, out=config.out and str(outdir / config.out))
    target = config.artifacts(outdir)["path"]
    if config.mode == "ds":
        path = ode.integrate(config.params, config.initial, config.t_end, dt=config.dt)
        io.write_ode_csv(target, path, {"r0": config.initial.r, "n0": config.initial.n})
    else:
        spec = spikesim.cli._build_spec(config)
        path = jump.simulate(spec, spec.lattice_state(config.initial.r, config.initial.n),
                             t_end=config.t_end, max_jumps=config.max_jumps, seed=config.seed)
        io.write_jump_csv(target, path)
    if config.a0 is not None or config.thr is not None or config.lln_reference:
        list(analyse_group([replace(config, out=None)], path, outdir))
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


@pytest.fixture(scope="module")
def held(tmp_path_factory):
    """Each run's artifacts from the held-path writers, by run."""
    cases = {**RUNS, **ENDS}
    return {name: _held_files(tmp_path_factory.mktemp(name) / "held", config)
            for name, config in cases.items()}


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("slice_rows", [1, 7, 1024])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_streamed_run_writes_the_held_paths_bytes(name, slice_rows, held, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(io, "_SLICE_ROWS", slice_rows)
    streamed = _files(tmp_path / "streamed", RUNS[name])
    assert streamed == held[name]
    assert len(streamed) == {"ds": 1, "global": 4, "meanfield": 3, "oneunit": 4}[name]


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("copy_file_range", [True, False], ids=["copy_file_range", "buffer"])
@pytest.mark.parametrize("name", sorted(ENDS))
def test_a_run_that_ends_short_of_its_horizon_rebuilds_its_header(name, copy_file_range, held,
                                                                  tmp_path, monkeypatch):
    copies = []
    copy_rest = io._copy_rest
    monkeypatch.setattr(io, "_copy_rest", lambda *args: copies.append(args) or copy_rest(*args))
    if not copy_file_range:
        monkeypatch.delattr(os, "copy_file_range", raising=False)
    streamed = _files(tmp_path / "streamed", ENDS[name])
    assert streamed == held[name]
    assert len(copies) == 1
    meta = dict(line[2:].split("=", 1) for line in streamed[f"{name}_seed{ENDS[name].seed}.csv"]
                .decode().splitlines() if line.startswith("# "))
    assert meta["terminated_by"] == ("Absorbed" if name == "absorbed" else "MaxJumps")


def test_a_run_that_reaches_its_horizon_keeps_the_header_it_began_with(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_copy_rest", lambda *args: pytest.fail("header rebuilt"))
    config = replace(RUNS["global"], a0=None, thr=None, out=None)
    assert _files(tmp_path / "streamed", config)


def test_path_csvs_of_one_stream_each_get_every_row(held, tmp_path):
    # Two configs of one path, each writing its own path CSV.
    config = replace(RUNS["meanfield"], out=str(tmp_path / "meanfield.csv"))
    other = replace(config, out=str(tmp_path / "other.csv"), a0=None, label="other")
    written = list(analyse_group([config, other], simulate_run(config, other),
                                 tmp_path))
    assert [path.name for path in written] == [
        "meanfield.csv", "meanfield_survival.csv", "meanfield_report.json", "other.csv"]
    assert (tmp_path / "other.csv").read_bytes() == held["meanfield"]["meanfield.csv"]


# A run the CLI refuses mid-run, after rows were written: an RK4 step whose n
# falls below the overshoot limit at step 4246, and event times that
# overflow to inf.
FAILING = {
    "overshoot": (["ds", "--gamma", "0.05", "--r0", "7", "--n0", "7", "--t-end", "200",
                   "--dt", "0.02394"], 2, "below overshoot limit at step 4246"),
    "event_time": (["simulate", "--mode", "oneunit", "--alpha", "0", "--p", "5e-324",
                    "--r0", "0", "--n0", "0", "--max-jumps", "3", "--seed", "0"], 1,
                   "event time inf is not finite"),
}


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("slice_rows", [7, 1024])
@pytest.mark.parametrize("old", [None, b"an old file\n"], ids=["new", "old"])
@pytest.mark.parametrize("name", sorted(FAILING))
def test_a_run_that_fails_leaves_no_file(name, old, slice_rows, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(io, "_SLICE_ROWS", slice_rows)
    argv, code, message = FAILING[name]
    path = tmp_path / "run.csv"
    if old is not None:
        path.write_bytes(old)
    assert main([*argv, "--out", str(path)]) == code
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["run.csv"])
    if old is not None:
        assert path.read_bytes() == old


@pytest.mark.parametrize("name, step", [("global", "replace"), ("absorbed", "copy")])
def test_a_commit_that_fails_leaves_no_file(name, step, tmp_path, monkeypatch):
    # Putting the file in place, or rebuilding its header, fails (no space
    # left, say): the temporary file is discarded all the same.
    def fail(*args):
        raise OSError(errno.ENOSPC, "no space left")

    monkeypatch.setattr(*((os, "replace", fail) if step == "replace" else
                          (io, "_copy_rest", fail)))
    config = {**RUNS, **ENDS}[name]
    config = replace(config, out=str(tmp_path / "run.csv"), a0=None, thr=None)
    with pytest.raises(OSError, match="no space left"):
        list(analyse_group([config], simulate_run(config), tmp_path))
    assert list(tmp_path.iterdir()) == []


def _path_name(config: RunConfig) -> str:
    return config.artifacts()["path"].name


@pytest.mark.parametrize("name", ["ds", "absorbed"])
def test_a_symlinked_out_is_written_to_the_file_it_names(name, held, tmp_path):
    # The new file is put in place beside the file the link names, with its
    # mode, and the link stays a link.
    config = {**RUNS, **ENDS}[name]
    real = tmp_path / "real"
    real.mkdir()
    target = real / "run.csv"
    target.write_bytes(b"an old file\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    config = replace(config, out=str(link))
    assert list(analyse_group([config], simulate_run(config), tmp_path)) == [link]
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == held[name][_path_name({**RUNS, **ENDS}[name])]
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in real.iterdir()] == ["run.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real"]


def test_a_run_that_fails_keeps_the_file_a_symlinked_out_names(tmp_path, capsys):
    argv, code, message = FAILING["overshoot"]
    real = tmp_path / "real"
    real.mkdir()
    (real / "run.csv").write_bytes(b"an old file\n")
    (tmp_path / "link.csv").symlink_to(real / "run.csv")
    assert main([*argv, "--out", str(tmp_path / "link.csv")]) == code
    assert message in capsys.readouterr().err
    assert (tmp_path / "link.csv").is_symlink()
    assert [p.name for p in real.iterdir()] == ["run.csv"]
    assert (real / "run.csv").read_bytes() == b"an old file\n"


def test_a_hard_linked_out_keeps_its_links(held, tmp_path, capsys):
    # Written through its name, as the held-path writer writes it, header
    # rebuilt; a run that fails leaves both names as they were.
    out, other = tmp_path / "run.csv", tmp_path / "other.csv"
    out.write_bytes(b"an old file\n")
    os.link(out, other)
    argv, code, _message = FAILING["event_time"]
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == other.read_bytes() == b"an old file\n"
    config = replace(ENDS["absorbed"], out=str(out))
    assert list(analyse_group([config], simulate_run(config), tmp_path)) == [out]
    assert os.path.samefile(out, other)
    assert out.read_bytes() == held["absorbed"][_path_name(ENDS["absorbed"])]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other.csv", "run.csv"]


def test_a_fifo_out_is_written_through_its_name(held, tmp_path):
    fifo = tmp_path / "run.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    config = replace(ENDS["absorbed"], out=str(fifo))
    try:
        assert list(analyse_group([config], simulate_run(config), tmp_path)) == [fifo]
    except BaseException:
        # Let a reader that no writer opened for end.
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        raise
    finally:
        reader.join(timeout=60)
    assert got == [held["absorbed"][_path_name(ENDS["absorbed"])]]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_a_streamed_path_csv_holds_no_path(tmp_path):
    # A path-CSV run at two horizons 4x apart, each in a fresh interpreter:
    # the longer run's peak RSS grows by far less than the 25 bytes an event
    # that a held path takes.
    code = ("import resource, sys\n"
            "from spikesim.cli import main\n"
            "assert main(['simulate', '--mode', 'oneunit', '--gamma', '100', '--seed', '1',\n"
            "             '--t-end', sys.argv[2], '--out', sys.argv[1]]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(spikesim.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    peak_kb, events = {}, {}
    for horizon in ("7500", "30000"):
        path = tmp_path / f"{horizon}.csv"
        result = subprocess.run([sys.executable, "-c", code, str(path), horizon], env=env,
                                capture_output=True, text=True, check=True, timeout=120)
        peak_kb[horizon] = int(result.stdout.split()[-1])
        with open(path, "rb") as fh:
            events[horizon] = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20),
                                                                         b""))
        path.unlink()
    assert events["30000"] >= 1_000_000
    held_kb = 25 * (events["30000"] - events["7500"]) / 1024
    assert peak_kb["30000"] - peak_kb["7500"] < held_kb / 10, (peak_kb, events)
