"""The compiled row formatter of the CSV writers, and the compiled row
reader of trajectory CSVs.

The formatter's floats must be ``repr``'s to the byte.  The digits come
from an exact shortest-digit algorithm with a table of 128-bit powers of
ten, which ``_compiled`` makes on first use and hands to the C loop, so the tests
hold the output to ``repr`` on the values where such an algorithm goes wrong
(interval bounds, ties, powers of two, notation switches) and the table to
its definition, recomputed here one power at a time with Python integers.

The reader's floats must be ``float()``'s, and so loadtxt's, to the bit: on
halfway cases, the edges of the subnormals and the table, and long digit
strings, where Eisel-Lemire hands the cell to strtod.  A file outside its
grammar must read as loadtxt reads it.
"""

import functools
import subprocess
import tracemalloc
from io import BytesIO
from unittest import mock

import numpy as np
import pytest

from spikesim import ModelParams, Trajectory, _compiled, build_oneunit, io, simulate
from spikesim.io import read_trajectory_csv, write_jump_csv, write_ode_csv

# The formatter and the reader of the library, where it builds and passes its
# check (a library refused here fails the tests that it runs wherever it
# builds, in test_engine_stream and test_csv_bytes).
FORMATTER = io._compiled_formatter()
READER = io._compiled_reader()
compiled = pytest.mark.skipif(FORMATTER is None or READER is None,
                              reason="no compiled library here")


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


def _read_floats(cells: list[str]) -> np.ndarray:
    """``cells``, one a row, read by the raw compiled reader."""
    text = "".join(cell + "\n" for cell in cells).encode("ascii")
    (column,) = READER(BytesIO(text), [0], len(text))
    return column


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# Where a correctly rounded reader is most easily wrong: a halfway case
# (2^53 + 1), the largest subnormal and the smallest one, 1e23 (the double
# nearest it is below it), and the edges of Clinger's fast path and of the
# power table.
NAMED = ["9007199254740993", "2.2250738585072011e-308", "4.9406564584124654e-324", "1e23",
         "9007199254740992e22", "9007199254740993e-22", "1e-292", "1e-293", "1e326", "1e308",
         "1.7976931348623157e308", "1.7976931348623159e308", "2.4703282292062328e-324",
         "2.4703282292062327e-324", "123456789012345678901234567890", "0e999", "-0.0",
         "0.000000000000000000000000000001e-300", "7.2057594037927933e16"]


@compiled
def test_named_decimals_read_as_float_reads_them():
    assert np.array_equal(_bits(_read_floats(NAMED)), _bits([float(x) for x in NAMED]))


@compiled
def test_random_decimals_read_as_float_reads_them():
    # 200,000 decimals of 1 to 25 significant digits, exponents -350..320,
    # either sign, with and without a fraction and an exponent.
    rng = np.random.default_rng(3)
    size = 200_000
    lengths = rng.integers(1, 26, size=size)
    digits = ["".join(map(str, row[:k])) for row, k in
              zip(rng.integers(0, 10, size=(size, 25)).tolist(), lengths.tolist())]
    points = rng.integers(0, lengths + 1).tolist()
    exponents = rng.integers(-350, 321, size=size).tolist()
    styles = rng.integers(0, 4, size=size).tolist()
    cells = []
    for d, point, e, style in zip(digits, points, exponents, styles):
        cell = (d[:point] or "0") + ("." + d[point:] if point < len(d) else "")
        cell += ("", f"e{e}", f"e{e:+d}", f"e{e}")[style]
        cells.append("-" + cell if style == 3 else cell)
    got = _bits(_read_floats(cells))
    expected = _bits([float(cell) for cell in cells])
    wrong = [cells[i] for i in np.flatnonzero(got != expected)[:5]]
    assert wrong == [], "read unlike float()"


@compiled
@pytest.mark.parametrize("kind", KINDS)
def test_reprs_read_back_to_the_bit(kind):
    values = _values()[kind]
    values = values[~np.isnan(values)]  # nan is read as the one nan loadtxt reads
    assert np.array_equal(_bits(_read_floats(list(map(repr, values.tolist())))), _bits(values))


def _jump_csv(path) -> list[str]:
    """A short jump CSV at ``path``; its lines."""
    spec = build_oneunit(ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0))
    write_jump_csv(path, simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=20, seed=1))
    return path.read_text().splitlines(keepends=True)


# Rows the writers never write, each a change to the tenth data row.  Some
# loadtxt reads, some it refuses; either way as it does without the library.
NOT_WRITTEN = {
    "space before a number": lambda row: " " + row,
    "plus sign": lambda row: "+" + row,
    "no integer digits": lambda row: row.replace("0.", ".", 1),
    "no fraction digits": lambda row: "1." + row[row.index(","):],
    "hex float": lambda row: "0x1p3" + row[row.index(","):],
    "digit separator": lambda row: "1_0" + row[row.index(","):],
    "empty number": lambda row: row[row.index(","):],
    "Infinity": lambda row: "Infinity" + row[row.index(","):],
    "nan with a sign": lambda row: "-nan" + row[row.index(","):],
    "capital exponent": lambda row: "1E5" + row[row.index(","):],
    "too few cells": lambda row: row[:row.rindex(",")] + "\n",
    "label with a digit": lambda row: row.rstrip("\n") + "2\n",
}


@pytest.mark.parametrize("change", list(NOT_WRITTEN) + ["CRLF line ends", "no final newline"])
def test_rows_the_writers_never_write_read_as_loadtxt_reads_them(tmp_path, change):
    lines = _jump_csv(tmp_path / "p.csv")
    first = lines.index("t,r,n,channel\n") + 1
    if change == "CRLF line ends":
        lines = [line.replace("\n", "\r\n") for line in lines]
    elif change == "no final newline":
        lines[-1] = lines[-1].rstrip("\n")
    else:
        lines[first + 9] = NOT_WRITTEN[change](lines[first + 9])
    (tmp_path / "p.csv").write_bytes("".join(lines).encode("ascii"))

    def outcome():
        try:
            meta, columns = read_trajectory_csv(tmp_path / "p.csv")
        except ValueError as exc:
            return str(exc)
        return meta, {name: _bits(values).tolist() for name, values in columns.items()}

    with mock.patch.object(io, "_compiled_reader", lambda: None):
        expected = outcome()
    assert outcome() == expected
    if READER is not None:
        with mock.patch.object(io, "_compiled_reader", lambda: READER):
            assert outcome() == expected
            assert io._read_compiled(tmp_path / "p.csv") is None  # refused, loadtxt read it


@compiled
def test_a_row_longer_than_a_block_is_refused():
    text = b"0.1,0.2,0.3\n"
    assert READER(BytesIO(text), [0, 1, 2], len(text), block=len(text) - 1) is None
    assert [list(c) for c in READER(BytesIO(text), [0, 1, 2], len(text), block=len(text))] == [
        [0.1], [0.2], [0.3]]


@compiled
def test_the_checked_reader_is_the_one_built():
    # The checks that passed the library at its build pass its loops.
    assert io._formatter_agrees(FORMATTER) and io._reader_agrees(READER)


@compiled
def test_reading_does_not_hold_the_file(tmp_path):
    rows = 200_000
    rng = np.random.default_rng(0)
    t, r, n = (rng.random(rows) * 10.0 ** rng.integers(-5, 6, size=rows) for _ in range(3))
    write_ode_csv(tmp_path / "p.csv", Trajectory(t=t, r=r, n=n, params=ModelParams(
        alpha=0.01, beta=1.0, gamma=2.0, p=7.0), dt=1e-3, sample_every=1))
    size = (tmp_path / "p.csv").stat().st_size
    io._compiled_reader()  # loaded before the count starts
    tracemalloc.start()
    try:
        _meta, columns = read_trajectory_csv(tmp_path / "p.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(columns["n"], n)
    # Beyond the columns it returns, the read held less than an eighth of
    # the file: a block and the columns' growth.
    assert peak - 3 * 8 * rows < size / 8, (peak, size)
