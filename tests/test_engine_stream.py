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
import platform
import sysconfig
import tempfile

import numpy as np
import pytest
import test_csv_bytes

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
# with alpha = 0.01, p = 7.
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
    ("global", 100.0, 1.0, 0): "b90df0806b40a9d0758e4a9be3af8b63836670619948f6c769b4c07f2dd6a8fa",
    ("global", 100.0, 1.0, 1): "49220ff97c92bae82cd120e238071bead611ee44d2f485817396f9d72da6b83c",
    ("global", 100.0, 1.0, 2): "407e1816cba43dab26ddbc847ef979ef894aaf39a266b3d9f1b623da6e843abc",
    ("global", 100.0, 1.0, 7): "ef093ad9494b76cf83addc8f0c6bbc694781d192f743697b11961f0d2058029c",
    ("global", 100.0, 0.7, 0): "7358120f152494f8b20fc70e1ea4727ef8266e10d33d972138a554bf5a7281df",
    ("global", 100.0, 0.7, 1): "4d57d66a517363fae01d3f129eab87bce004f365981fb4147ba63b7a5b9575ba",
    ("global", 100.0, 0.7, 2): "e62cc6f3c95e1e1f254a97588302643f8f07aa72e9cf223524531bd3d1de5b23",
    ("global", 100.0, 0.7, 7): "f15bd83f23102891a98b70aa09d2bfeeafe657b7e691b6d760d5475e6ac2c77c",
    ("global", 2.0, 1.0, 0): "2c406255a1486a70eabc62d9850d98ab9b65a9a6505f091d3dcea20dfb7f481d",
    ("global", 2.0, 1.0, 1): "f860732909048871dbc72308b6431fc3000e947d998cf0d2dfe164bd9cee7bca",
    ("global", 2.0, 1.0, 2): "85300c89306d3e6372d8001aa2d45ef72c27586a52b8b63e386951edbf25a3d4",
    ("global", 2.0, 1.0, 7): "5af7cd0489171e4b3be7b8914623ed117b4972e23b993d6b5c4a489c6fda5658",
    ("global", 2.0, 0.7, 0): "f8b31d03f0ab5c63f43fb585f29634a91bd90d599cc63d59706fbbd8336841fb",
    ("global", 2.0, 0.7, 1): "bebaec67c18aaf470876712f5741638ddd8abb2506b3598700cf66c2ae5cba51",
    ("global", 2.0, 0.7, 2): "89cc9a552577144c720ec4f8f57a7f1a3acb826a82cfe1c87f2e0494710126b5",
    ("global", 2.0, 0.7, 7): "01d6fb6befea7eeb444348fb9cc45be7cddafe356ca2c63d615302f2686b1db7",
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
    assert digest(traj) == GRID_DIGESTS[key]


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_stream_is_frozen(name):
    build, start, horizon, expected = EDGE_CASES[name]
    spec = build()
    traj = simulate(spec, spec.lattice_state(*start), seed=3, **horizon)
    assert digest(traj) == expected


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
    # A loop that builds but draws differently falls back to the Python
    # kernel at its check run; that must not pass unnoticed.
    assert jump.engine() == ("python" if _compiled.load() is None else "compiled")


def _has_fma() -> bool:
    """Whether this machine runs x86-64 code with FMA instructions."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and "fma" in line.split() for line in fh)
    except OSError:
        return False


class TestBuild:
    """The compiled library is built into the cache on first use, and the
    Python kernel, RK4 loop, row writer and row reader run where it cannot
    be built."""

    # Each module's checked entry point into the library, and the table the
    # formatter and reader share, each made once.
    LOADED = (jump._compiled_run, ode._compiled_rk4, io._compiled_formatter,
              io._compiled_reader, _compiled.pow10_table)

    @pytest.fixture
    def empty_cache(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_compiled, "cache_dir", lambda: tmp_path)
        for loaded in self.LOADED:
            loaded.cache_clear()
        yield tmp_path
        for loaded in self.LOADED:
            loaded.cache_clear()

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

    @pytest.mark.skipif(jump.engine() != "compiled", reason="no compiled jump engine here")
    def test_builds_once_into_the_cache(self, empty_cache):
        assert jump.engine() == "compiled"
        (library,) = empty_cache.iterdir()
        assert library.name.startswith("_kernel-") and library.suffix == ".so"
        built = library.stat().st_mtime_ns
        jump._compiled_run.cache_clear()
        assert jump.engine() == "compiled"
        assert [p.stat().st_mtime_ns for p in empty_cache.iterdir()] == [built]

    @pytest.mark.skipif(jump.engine() != "compiled" or not _has_fma(),
                        reason="needs the compiled jump engine on an x86-64 CPU with FMA")
    def test_rejects_a_build_that_fuses_multiply_adds(self, empty_cache, monkeypatch):
        # Fused, a rate's sum rounds once fewer than the Python kernel's.
        monkeypatch.setattr(_compiled, "CFLAGS", (*_compiled.CFLAGS, "-mfma", "-ffp-contract=fast"))
        assert _compiled.load() is not None  # it builds and loads, and is refused:
        assert jump._compiled_run() is None

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
