"""The compiled row formatter of the CSV writers.

Its floats must be ``repr``'s to the byte.  The digits come from an exact
shortest-digit algorithm with a table of 128-bit powers of ten, which
``_compiled`` makes at load and hands to the C loop, so the tests hold the
output to ``repr`` on the values where such an algorithm goes wrong
(interval bounds, ties, powers of two, notation switches) and the table to
its definition, recomputed here one power at a time with Python integers.
"""

import functools
import subprocess

import numpy as np
import pytest

from spikesim import ModelParams, _compiled, build_oneunit, io, simulate
from spikesim.io import write_jump_csv

# The formatter as built, without the check that would replace it by the
# row loop if it wrote differently.
FORMATTER = _compiled.load_formatter()
compiled = pytest.mark.skipif(FORMATTER is None, reason="no compiled library here")


def _float_text(values: np.ndarray) -> str:
    return "".join(FORMATTER([("float", values, 0.0)], ("x",), 4096))


@functools.cache
def _values() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    short = rng.integers(0, 2**64, size=12_000, dtype=np.uint64).view(np.float64)
    short = short[np.isfinite(short)].tolist()
    return {
        "uniform bits": rng.integers(0, 2**64, size=300_000, dtype=np.uint64).view(np.float64),
        "powers of two": np.concatenate([twos, np.nextafter(twos, 0.0),
                                         np.nextafter(twos, np.inf)]),
        "powers of ten": np.concatenate([tens, np.nextafter(tens, 0.0),
                                         np.nextafter(tens, np.inf)]),
        "subnormals": rng.integers(1, 2**52, size=120_000, dtype=np.uint64).view(np.float64),
        "integers around 2^53": np.arange(-2**53 - 50_000, -2**53 + 50_000).astype(np.float64),
        # The doubles nearest to short decimals, of 1 to 17 digits.
        "short decimals": np.array([float(f"{x:.{d}e}") for d in range(17) for x in short]),
    }


KINDS = ["uniform bits", "powers of two", "powers of ten", "subnormals", "integers around 2^53",
         "short decimals"]


@compiled
@pytest.mark.parametrize("kind", KINDS)
def test_floats_are_written_as_their_repr(kind):
    values = _values()[kind]
    got = _float_text(values)
    expected = "\n".join(map(repr, values.tolist())) + "\n"
    if got != expected:
        wrong = [(w, g) for w, g in zip(expected.split("\n"), got.split("\n")) if w != g]
        pytest.fail(f"{len(wrong)} values written unlike repr, first (repr, written): {wrong[:5]}")


def _pow10(m: int) -> int:
    """floor(10^m * 2^(127 - floor(m log2 10))) + 1, in Python integers."""
    floor_log2 = (10**m).bit_length() - 1 if m >= 0 else -(10**-m).bit_length()
    shift = 127 - floor_log2
    if m < 0:
        return (1 << shift) // 10**-m + 1
    return (10**m << shift if shift >= 0 else 10**m >> -shift) + 1


def test_power_of_ten_table_is_exact():
    table = _compiled.pow10_table()
    assert len(table) == 1238
    for i, m in enumerate(range(-292, 327)):
        assert table[2 * i] << 64 | table[2 * i + 1] == _pow10(m), f"g({m})"


@pytest.mark.parametrize("code", [5, -1])
@pytest.mark.parametrize("compiled_path", [False, True], ids=["rows", "compiled"])
def test_channel_codes_outside_the_labels_are_rejected(tmp_path, monkeypatch, code,
                                                       compiled_path):
    spec = build_oneunit(ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0))
    traj = simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=20, seed=1)
    traj.channels = traj.channels.copy()
    traj.channels[7] = code

    def formatter(*args):
        raise AssertionError("the formatter ran on a channel code outside its labels")

    monkeypatch.setattr(io, "_compiled_formatter", lambda: formatter if compiled_path else None)
    with pytest.raises(ValueError, match="channel codes"):
        write_jump_csv(tmp_path / "jump.csv", traj)
    assert not (tmp_path / "jump.csv").exists()  # checked before the file is opened


@pytest.mark.parametrize("pairs", [[1.0, 2.0, 3.0, 4.0], np.ones((2, 3))], ids=["flat", "3-wide"])
def test_pairs_that_are_not_pairs_are_rejected(tmp_path, pairs):
    params = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
    with pytest.raises(ValueError, match="pairs"):
        io.write_pairs_csv(tmp_path / "pairs.csv", pairs, params)
    assert not (tmp_path / "pairs.csv").exists()


def test_kernel_compiles_without_warnings():
    command = _compiled.compile_command()
    try:
        result = subprocess.run([*command, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                                 str(_compiled.SOURCE)], capture_output=True, text=True,
                                timeout=120)
    except FileNotFoundError:
        pytest.skip(f"no C compiler {command[0]!r} here")
    assert result.returncode == 0, result.stderr
