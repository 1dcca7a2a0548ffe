"""Stream-freeze gate for the jump engine.

The sha256 digests below were taken from the engine before its rates moved
to a coefficient table.  Any change to the draw protocol (one standard
exponential, then one uniform, per event), to the order in which channel
rates are summed and picked, or to the rate arithmetic changes a digest.
Acceptance criteria 8 and 9 are statistical verdicts on fixed seeds, so the
stream must not move.  The module-level tests run the engine in use
(``spikesim.jump.engine()``, the compiled loop wherever it builds);
``TestPythonKernel`` runs them again on the Python kernel.
"""

import hashlib
import itertools
import os
import platform
import subprocess
import sys
import sysconfig
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np
import pytest
import test_csv_bytes
import test_drift_bytes

from spikesim import (
    EventCapError,
    ModelParams,
    State,
    build_global,
    build_meanfield,
    build_oneunit,
    integrate,
    next_jump,
    simulate,
)
from spikesim import _compiled, io, jump, ode

BUILDERS = {
    "oneunit": build_oneunit,
    "meanfield": build_meanfield,
    "global": lambda params: build_global(params, 50),
}
START = {"oneunit": (0.0, 0.0), "meanfield": (0.01, 0.01), "global": (0.01, 0.01)}

# (kind, gamma, beta, seed) -> digest of simulate(t_end=100, max_jumps=5000)
# with alpha = 0.01, p = 7.  The global runs stop at 5000 jumps before
# t = 100, so each covers, and hashes as its t_end, its last event time.
GRID_DIGESTS = {
    ("oneunit", 100.0, 1.0, 0): "8cd3b1a7b6fa97294a03a1f697e8c24853a39a80e827110d7d42844cfefb254e",
    ("oneunit", 100.0, 1.0, 1): "72e54175efa7bdf99fe8b97c4f25a09b37a724477f4f3a8acbbea65faa03a001",
    ("oneunit", 100.0, 1.0, 2): "d27867093ce18c918649df64763abc7b93ac569a4097d33ea5dff0d63af0b45d",
    ("oneunit", 100.0, 1.0, 7): "cb2e63d536a2944997fb1b1152dd9c760984c6801998b61c5dc78b851b8243bf",
    ("oneunit", 100.0, 0.7, 0): "2bc1ecaa1324a0c2ba76893e71d9144693247d9e48b99c6c3b608074f18e6c2b",
    ("oneunit", 100.0, 0.7, 1): "3f886096f2cb2586ba7c4fc6b0e39d872d2912cee713d11bda77e85ca24f2bff",
    ("oneunit", 100.0, 0.7, 2): "b100470bdbeb6b7ee2fec989530fbe625bb5fa3c17412177d842efb113f3ee86",
    ("oneunit", 100.0, 0.7, 7): "ca34ac9ea9b2c8c87040d45ddc7a93b4ebcda28bc55ee30ab45a106eff22a369",
    ("oneunit", 2.0, 1.0, 0): "8df8a738f91cfb914d49b73139207b1a6521ec693249cdae83b7ee88f631a21d",
    ("oneunit", 2.0, 1.0, 1): "4adad3fe0859fa9dd45cfa9a70ffcd22ab20f8d1d8baec448383f7afd059e239",
    ("oneunit", 2.0, 1.0, 2): "d7045c0241e8d56f0019c38784fdfba7ef6be413dd5a9c15a12b8cadb43ca0f3",
    ("oneunit", 2.0, 1.0, 7): "41c4ff14d52c12a71d84067fab5f8921eaf23652069c7357b7b2e4c6ddebae43",
    ("oneunit", 2.0, 0.7, 0): "727b919953c4a898ec787d17ba275866eef008cbf602517dcf10fd5d8d5c61e1",
    ("oneunit", 2.0, 0.7, 1): "917afead599c4c3461a161425ee115f5646a54a9c67aac831ea1d87dfd85b919",
    ("oneunit", 2.0, 0.7, 2): "fbac0f5c57f8c1870d2b06fedd717f4431bb7cdcb27652957597c62feb75d312",
    ("oneunit", 2.0, 0.7, 7): "62c383208bfd7d27f5a2521dac788dce317bafbf365f9f650734c5d0ef25b4a4",
    ("meanfield", 100.0, 1.0, 0): "1a7e446d6ac2596441dbd53d422db08b1e2a2f686c2bb5412be8117c62d3a333",
    ("meanfield", 100.0, 1.0, 1): "37d9448dd4e88025bd9ea3ab4c0b8bab0560261995d0883e450ccd992931ab98",
    ("meanfield", 100.0, 1.0, 2): "e5aa8dd27bed58ced045cb6cdf0d0f17c6a771fd6a349131b94b06ed916dc81f",
    ("meanfield", 100.0, 1.0, 7): "fa7d5c65f5de28f112dc8c86ebf3106282638890a7d2ebe2ce4c71e26104b9b8",
    ("meanfield", 100.0, 0.7, 0): "69c27d987aa3bfd063a4ddc8b381eead8be8e0be9ce5e80937045e3fca25b722",
    ("meanfield", 100.0, 0.7, 1): "15e07863dd0a882c5c932293b4348805738a70f19f88a9799c5fa502865d7076",
    ("meanfield", 100.0, 0.7, 2): "74a4cfbdd9dabdaa656a947c546c55afd4fd8cfe89c36a63ca5078f3dfa8efa3",
    ("meanfield", 100.0, 0.7, 7): "1a3e257b9dd45c675ae2f3e90475a8ab74166e4346454affa0f486ab9f78b6f1",
    ("meanfield", 2.0, 1.0, 0): "9c223a0e8ec4bacbc647fe56db5f117034d74f8cd31da1dbd8ee78efa6fef1cc",
    ("meanfield", 2.0, 1.0, 1): "8f6f043bfe391c7a892e4ad16f860bf8f22dfa0f1ebde410d18b4bcd9d061d44",
    ("meanfield", 2.0, 1.0, 2): "0c9bb6f8a4f91659a707de4a3e34f07b5cdf56c9a368becc849da709217cf830",
    ("meanfield", 2.0, 1.0, 7): "704654a0d71373ce07b21b03b4c67d1914f57ef8060899200028e2a88860079c",
    ("meanfield", 2.0, 0.7, 0): "b4b3897817a47b7c661ec303d955e6779f4922c9965e9a89c76979a54ea2aaea",
    ("meanfield", 2.0, 0.7, 1): "99d3eae2d17ffcd6216a19cbc40b0afcd65758fd4a2f1a0cafcb78c6eac29d33",
    ("meanfield", 2.0, 0.7, 2): "d16ca1d6cd6b24cb10b6709d9d4b083f2cb39a61b8b796749ff4c2835a02b2b8",
    ("meanfield", 2.0, 0.7, 7): "ab56856a41bc0c383563ed65d38355d508814e0014db4860968cfa453adddabc",
    ("global", 100.0, 1.0, 0): "89464e04181e649e4642b076839ca595e0beb126289e114d9738e1f318ce9ece",
    ("global", 100.0, 1.0, 1): "49ae29910d4c8d59c4d13669112b56c3006ea9fad9e26a761dcde5be8832fa85",
    ("global", 100.0, 1.0, 2): "c590e0a64a3a4c6d0b9642e4e318042aee92f24775f6cf3463a0484dc7918b2b",
    ("global", 100.0, 1.0, 7): "e97831af1366586bb589132729adfbcee414a9ef706e23ad7fed094b6438ca36",
    ("global", 100.0, 0.7, 0): "2a8035c8bfc04a9b7f0ce6a8f0ea7e3c9985a841a7675fc66c1d387535b1c3d4",
    ("global", 100.0, 0.7, 1): "399751059f43e66173fc7695574c39a319e93f18eee22d739e045bcea440e9e7",
    ("global", 100.0, 0.7, 2): "686c40f75cebcb0cdfa14a980b358e72c47446f3b1c5936121dccbeeec8f97d7",
    ("global", 100.0, 0.7, 7): "8a3d2620575719fa09f9a731b239db90c2ea9b04438712ec5e2446410fa5d8df",
    ("global", 2.0, 1.0, 0): "bc9172b18e681f9895a012c40e06490f36e40feab777ed44bb8ff78d6fb20c14",
    ("global", 2.0, 1.0, 1): "53179d5e03872ef05f20c0c12f735a5fddc32d55cf8f74ddee393ace785e784f",
    ("global", 2.0, 1.0, 2): "fa5da9568fdbfe004acdc2f210b9a347b6594aa2baa83a65aa45eb71271120fe",
    ("global", 2.0, 1.0, 7): "ae240e26e6f8bb1dd7a4c2b0ec1425614d82dc5978648a00cd6c287a15f010e2",
    ("global", 2.0, 0.7, 0): "cd3e943cfda791d00913b10402bdd012329a6aa11daf82ef72abd35da2aa6463",
    ("global", 2.0, 0.7, 1): "d03c55583d9649ddb84a263eff2b066896ba619b35d83545d1feed69cf8257bc",
    ("global", 2.0, 0.7, 2): "bdb6e22498f783348cd582e60cf5d4ed93c1e56d4da850b396c68e06831d85d2",
    ("global", 2.0, 0.7, 7): "ada966dbee97356952f128e51bc15e40f71cbd96fe9df2634a9d1845e1503e7f",
}

# Edge cases: absorption, a dropped (zero) rate term, a zero mean-field
# anchor, and a run bounded by the jump count alone.  Seed 3 throughout.
EDGE_CASES = {
    "absorbed": (
        lambda: build_oneunit(ModelParams(alpha=0.5, beta=1.0, gamma=2.0, p=0.0)),
        (3.0, 2.0), {"t_end": 1e6},
        "97b0e1e097229304074d6231b701873b722f75e240a1704359fddc819314c25b",
    ),
    "alpha0_meanfield": (
        lambda: build_meanfield(ModelParams(alpha=0.0, beta=0.7, gamma=100.0, p=7.0)),
        (0.0, 0.0), {"t_end": 50.0},
        "f4bc7215334f1305450fa6252299b233b864ba9dc790241dbdf7fbad9d1fa584",
    ),
    "zero_anchor_meanfield": (
        lambda: build_meanfield(ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0),
                                anchor=State(0.0, 0.0)),
        (0.0, 0.0), {"t_end": 50.0},
        "b3053d8c38ef1c04a937d4c84e82e34e61b0193aa0dd907e0445f4f5e5e96de0",
    ),
    "global_n7_max_jumps_only": (
        lambda: build_global(ModelParams(alpha=0.01, beta=0.7, gamma=3.0, p=7.0), 7),
        (0.5, 0.5), {"max_jumps": 3000},
        "5d67417a38ed0b4867729a7f168d3dab4f47a305b700aa6b4edb319f179b2c38",
    ),
}


# The numpy version the digests were recorded under.  The engine draws
# through numpy's ``Generator`` (its bit generator and its exponential and
# uniform draws), so on another version a mismatch may be numpy's stream
# moving rather than the engine.
DIGEST_NUMPY = "2.4.6"
STREAM_MOVED = (f"stream digest differs; running numpy {np.__version__}, digests recorded "
                f"under numpy {DIGEST_NUMPY}")


def digest(traj) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(traj.times, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(traj.krs, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(traj.kns, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(traj.channels, dtype="<i1").tobytes())
    h.update(traj.terminated_by.value.encode())
    h.update(repr(float(traj.t_end)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(GRID_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_grid_stream_is_frozen(key):
    kind, gamma, beta, seed = key
    spec = BUILDERS[kind](ModelParams(alpha=0.01, beta=beta, gamma=gamma, p=7.0))
    traj = simulate(spec, spec.lattice_state(*START[kind]), t_end=100.0,
                    max_jumps=5000, seed=seed)
    assert digest(traj) == GRID_DIGESTS[key], STREAM_MOVED


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_stream_is_frozen(name):
    build, start, horizon, expected = EDGE_CASES[name]
    spec = build()
    traj = simulate(spec, spec.lattice_state(*start), seed=3, **horizon)
    assert digest(traj) == expected, STREAM_MOVED


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_first_event_equals_next_jump(kind, seed):
    spec = BUILDERS[kind](ModelParams(alpha=0.01, beta=0.7, gamma=2.0, p=7.0))
    s = spec.lattice_state(*START[kind])
    traj = simulate(spec, s, max_jumps=1, seed=seed)
    wait, channel = next_jump(spec, s, np.random.default_rng(seed))
    assert traj.times[0] == wait
    assert traj.channels[0] == channel


@pytest.fixture
def python_kernel(monkeypatch):
    """The plain Python kernel, the reference, in place of the
    compiled loop."""
    monkeypatch.setattr(jump, "_compiled_run", lambda: None)


@pytest.mark.usefixtures("python_kernel")
class TestPythonKernel:
    test_grid_stream_is_frozen = staticmethod(test_grid_stream_is_frozen)
    test_edge_case_stream_is_frozen = staticmethod(test_edge_case_stream_is_frozen)
    test_first_event_equals_next_jump = staticmethod(test_first_event_equals_next_jump)


CHUNK = _compiled.CHUNK_EVENTS


def _outcome(spec, start, **run):
    """The digest of ``simulate``'s trajectory, or its EventCapError."""
    try:
        return digest(simulate(spec, start, seed=5, **run))
    except EventCapError as exc:
        return str(exc)


@pytest.mark.parametrize("run", [{"max_jumps": 2 * CHUNK + 3},
                                 {"t_end": 1e9, "max_events": CHUNK + 1}],
                         ids=["two_chunks_and_a_bit", "cap_one_past_a_chunk"])
def test_runs_across_chunks_match_the_python_kernel(run, monkeypatch):
    spec = BUILDERS["global"](ModelParams(alpha=0.01, beta=0.7, gamma=2.0, p=7.0))
    start = spec.lattice_state(*START["global"])
    engine_in_use = _outcome(spec, start, **run)
    monkeypatch.setattr(jump, "_compiled_run", lambda: None)
    assert engine_in_use == _outcome(spec, start, **run)


def test_the_compiled_engine_runs_wherever_it_builds():
    # A library that builds but draws differently is refused whole at its
    # check, and the Python kernel runs; that must not pass unnoticed.
    assert jump.engine() == ("python" if _compiled.library() is None else "compiled")
    assert not (_compiled.cache_dir() / f"_kernel-{_compiled.build_key()}.refused").exists()


def _has_fma() -> bool:
    """Whether this machine runs x86-64 code with FMA instructions."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and "fma" in line.split() for line in fh)
    except OSError:
        return False


# Each module's entry point into the library: None where the library is not
# available, the library's loop elsewhere.
ACCESSORS = (jump._compiled_run, ode._compiled_rk4, io._compiled_formatter,
             io._compiled_reader)


class TestBuild:
    """The compiled library is built into the cache on first use and checked
    once, when it is built; the Python kernel, RK4 loop, row writer and row
    reader run where it cannot be built or is refused."""

    @pytest.fixture
    def empty_cache(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_compiled, "cache_dir", lambda: tmp_path)
        _compiled.library.cache_clear()
        yield tmp_path
        _compiled.library.cache_clear()

    @pytest.fixture
    def compiles(self, monkeypatch):
        """The compiler commands run from here on (``subprocess.run`` calls)."""
        commands = []
        run = subprocess.run
        monkeypatch.setattr(subprocess, "run",
                            lambda command, **kwargs: commands.append(command)
                            or run(command, **kwargs))
        return commands

    def test_falls_back_to_the_python_kernel_without_a_compiler(self, empty_cache, monkeypatch,
                                                                tmp_path_factory):
        config_var = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: "/nonexistent/cc" if name == "CC" else config_var(name))
        assert jump.engine() == "python"
        assert list(empty_cache.iterdir()) == []  # no partial library left behind
        for key in [("oneunit", 100.0, 1.0, 0), ("meanfield", 2.0, 0.7, 7)]:
            test_grid_stream_is_frozen(key)
        # integrate and the CSV writers take their Python loops, same bytes.
        assert ode._compiled_rk4() is None and io._compiled_formatter() is None
        for write in (test_csv_bytes.ode_fig1, test_csv_bytes.ode_fig2_strided,
                      test_csv_bytes.jump_meanfield, test_csv_bytes.jump_oneunit):
            test_csv_bytes.test_csv_bytes_are_frozen(tmp_path_factory.mktemp("csv"), write)
        # The drift scans, which use no library, give the same bytes.
        for case in test_drift_bytes.SCANS:
            test_drift_bytes.test_scan_report_bytes_are_frozen(case)
        # The CSV reader takes loadtxt, and reads the floats written.
        assert io._compiled_reader() is None
        params = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
        spec = build_oneunit(params)
        traj = simulate(spec, spec.lattice_state(0.0, 0.0), t_end=50.0, seed=1)
        ode_traj = integrate(params, State(0.01, 0.01), t_end=1.0, dt=0.01)
        csv = tmp_path_factory.mktemp("read")
        io.write_jump_csv(csv / "jump.csv", traj)
        io.write_ode_csv(csv / "ode.csv", ode_traj)
        _meta, columns = io.read_trajectory_csv(csv / "jump.csv")
        assert np.array_equal(columns["t"][1:], traj.times)
        assert np.array_equal(columns["r"], traj.step_r())
        assert np.array_equal(columns["n"], traj.step_n())
        _meta, columns = io.read_trajectory_csv(csv / "ode.csv")
        for name in ("t", "r", "n"):
            assert np.array_equal(columns[name], getattr(ode_traj, name))

    def test_a_failed_compile_is_tried_once_per_process(self, empty_cache, monkeypatch,
                                                        compiles):
        config_var = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: "false" if name == "CC" else config_var(name))
        assert [accessor() for accessor in ACCESSORS] == [None] * 4
        assert jump.engine() == "python"
        assert len(compiles) == 1
        # Not remembered: the headers may be installed later, so the next
        # process tries again.
        assert list(empty_cache.iterdir()) == []
        _compiled.library.cache_clear()
        assert _compiled.library() is None and len(compiles) == 2

    @pytest.mark.skipif(jump.engine() != "compiled", reason="no compiled jump engine here")
    def test_builds_once_into_the_cache(self, empty_cache, compiles):
        assert jump.engine() == "compiled"
        (library,) = empty_cache.iterdir()
        assert library.name.startswith("_kernel-") and library.suffix == ".so"
        built = library.stat().st_mtime_ns
        _compiled.library.cache_clear()
        assert jump.engine() == "compiled"
        assert [p.stat().st_mtime_ns for p in empty_cache.iterdir()] == [built]
        assert len(compiles) == 1

    @pytest.mark.skipif(jump.engine() != "compiled", reason="no compiled jump engine here")
    def test_a_checked_library_is_used_with_no_check(self):
        # A fresh process that finds the checked library in the cache (this
        # process built it, at the latest when it asked for the engine) runs
        # none of the Python twins the check holds the loops to.
        code = (
            "from spikesim import ModelParams, build_oneunit, io, jump, ode, simulate\n"
            "calls = []\n"
            "def spy(module, name):\n"
            "    twin = getattr(module, name)\n"
            "    setattr(module, name, lambda *args, **kw: calls.append(name) or twin(*args, **kw))\n"
            "for module, name in [(jump, '_run_python'), (ode, '_rk4_python'),\n"
            "                     (io, '_python_rows'), (io, '_loadtxt')]:\n"
            "    spy(module, name)\n"
            "spec = build_oneunit(ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0))\n"
            "simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=10, seed=1)\n"
            "print(jump.engine(), calls)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(_compiled.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True, timeout=60)
        assert result.stdout == "compiled []\n"

    @pytest.mark.skipif(jump.engine() != "compiled" or not _has_fma(),
                        reason="needs the compiled jump engine on an x86-64 CPU with FMA")
    def test_rejects_a_build_that_fuses_multiply_adds(self, empty_cache, monkeypatch, compiles):
        # Fused, a rate's sum rounds once fewer than the Python kernel's, so
        # the jump loop fails its check and the whole library is refused.
        monkeypatch.setattr(_compiled, "CFLAGS", (*_compiled.CFLAGS, "-mfma", "-ffp-contract=fast"))
        self._assert_refused(empty_cache, compiles, "run")

    @pytest.mark.skipif(jump.engine() != "compiled", reason="no compiled jump engine here")
    @pytest.mark.parametrize("loop, module, name, differs", [
        ("run", jump, "_run_python", lambda *args: (array("d"), bytearray(), 1)),
        ("rk4", ode, "_rk4_python", lambda *args: (1, 0, 0, 1, 0.0)),
        ("formatter", io, "_python_rows", lambda *args: iter([b"0\n"])),
        ("reader", io, "_loadtxt", lambda lines, usecols: np.zeros((len(usecols), 1))),
        # format_rows hands r and n the same two memos for every table: the
        # check's second jump table repeats the first one's indices under
        # swapped units, so the text the first one left is wrong for it.
        ("formatter", _compiled, "Memo",
         itertools.cycle([_compiled.Memo(), _compiled.Memo()]).__next__),
    ], ids=["run", "rk4", "formatter", "reader", "formatter_memos_outlive_their_table"])
    def test_a_build_that_fails_one_check_is_refused_whole(self, empty_cache, monkeypatch,
                                                           compiles, loop, module, name, differs):
        monkeypatch.setattr(module, name, differs)
        self._assert_refused(empty_cache, compiles, loop)

    @pytest.mark.skipif(jump.engine() != "compiled", reason="no compiled jump engine here")
    @pytest.mark.parametrize("loop, line, mutant", [
        # A non-finite state reported as n below the limit, and an n below
        # the limit reported as r.
        ("rk4", "fail = RK4_NOT_FINITE;", "fail = RK4_N_BELOW;"),
        ("rk4", "rk4->fail_value = n;", "rk4->fail_value = r;"),
        # The float loop writes every column as the first one, and the
        # jump-row loop keeps n's text in r's memo: faults that only a
        # table of that loop's layout shows.
        ("formatter", "((const double *)columns[j].values)[i]",
         "((const double *)columns[0].values)[i]"),
        ("formatter", "format_lattice(pow10, n_memo, kn[i], n_unit, out);",
         "format_lattice(pow10, r_memo, kn[i], n_unit, out);"),
        # A lattice index truncated to 32 bits, which only indices past 2^31
        # show.
        ("formatter", "format_double(pow10, (double)k * unit, out);",
         "format_double(pow10, (double)(int32_t)k * unit, out);"),
        # Each numeric loop's row output: the jump loop drops each row's
        # newline, and the RK4 loop writes a sample's time in each cell.
        ("run", "out = format_jump_row(rows->pow10, &path, count, out);",
         "out = format_jump_row(rows->pow10, &path, count, out) - 1;"),
        ("rk4", "out = format_double(rows->pow10, sample[j][kept], out);",
         "out = format_double(rows->pow10, sample[0][kept], out);"),
    ], ids=["rk4_not_finite", "rk4_n_fail_value", "formatter_floats_first_column",
            "formatter_jump_shared_memo", "formatter_lattice_index_truncated", "run_rows",
            "rk4_rows"])
    def test_refuses_a_kernel_wrong_on_one_branch(self, empty_cache, monkeypatch, compiles,
                                                  tmp_path_factory, loop, line, mutant):
        # A C-only fault, which no Python twin shares, on a branch that only
        # one of the probes takes.
        source = _compiled.SOURCE.read_text()
        assert source.count(line) == 1
        copy = tmp_path_factory.mktemp("kernel") / _compiled.SOURCE.name
        copy.write_text(source.replace(line, mutant))
        monkeypatch.setattr(_compiled, "SOURCE", copy)
        monkeypatch.setattr(_compiled, "KEYED", (copy, *_compiled.KEYED[1:]))
        self._assert_refused(empty_cache, compiles, loop)

    @staticmethod
    def _assert_refused(cache, compiles, loop):
        """The library built into ``cache`` is refused whole, and remembered
        with the names of the loops that failed, ``loop`` among them."""
        assert [accessor() for accessor in ACCESSORS] == [None] * 4
        assert jump.engine() == "python"
        (refused,) = cache.iterdir()
        assert refused.name.startswith("_kernel-") and refused.suffix == ".refused"
        names = refused.read_text().split()
        assert loop in names and set(names) <= set(_compiled.Loops._fields)
        # Another process neither builds nor checks it again.
        _compiled.library.cache_clear()
        assert _compiled.library() is None
        assert len(compiles) == 1

    @pytest.mark.skipif(jump.engine() != "compiled", reason="no compiled jump engine here")
    def test_a_passing_build_removes_stale_files(self, empty_cache):
        stale = time.time() - _compiled.STALE_SECONDS - 60
        fresh = time.time() - _compiled.STALE_SECONDS + 60
        for name, mtime in [("_kernel-0.so", stale), ("_kernel-1.refused", stale),
                            ("_kernel-2.so", fresh), ("_kernel-3.refused", fresh),
                            ("notes.txt", stale)]:
            (empty_cache / name).touch()
            os.utime(empty_cache / name, (mtime, mtime))
        assert jump.engine() == "compiled"
        library = f"_kernel-{_compiled.build_key()}.so"
        assert sorted(p.name for p in empty_cache.iterdir()) == sorted(
            [library, "_kernel-2.so", "_kernel-3.refused", "notes.txt"])
        # Never the library just built, however old it looks.
        os.utime(empty_cache / library, (stale, stale))
        _compiled.prune(empty_cache / library)
        assert (empty_cache / library).exists()

    @pytest.mark.parametrize("index", range(len(_compiled.KEYED)),
                             ids=[path.name for path in _compiled.KEYED])
    def test_each_keyed_files_bytes_change_the_key(self, monkeypatch, tmp_path, index):
        # A changed twin, probe or binding builds and checks a new library.
        keyed = list(_compiled.KEYED)
        key = _compiled.build_key()
        changed = tmp_path / keyed[index].name
        changed.write_bytes(keyed[index].read_bytes() + b"\n")
        keyed[index] = changed
        monkeypatch.setattr(_compiled, "KEYED", tuple(keyed))
        assert _compiled.build_key() != key

    def test_cache_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert _compiled.cache_dir() == tmp_path / "xdg" / "spikesim"
        # A cache home that cannot be made: a per-user directory in the
        # temp dir instead.
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        cache = _compiled.cache_dir()
        assert cache.parent == tmp_path / "tmp" and cache.name.startswith("spikesim-")
