"""The compiled row formatter of the CSV writers, and the compiled row
reader of trajectory CSVs.

The formatter's floats must be ``repr``'s to the byte.  The digits come
from an exact shortest-digit algorithm with a table of 128-bit powers of
ten, which ``_compiled`` makes on first use and hands to the C loop, so the tests
hold the output to ``repr`` on the values where such an algorithm goes wrong
(interval bounds, ties, powers of two, notation switches) and the table to
its definition, recomputed here one power at a time with Python integers.

The reader's floats must be ``float()``'s, and so loadtxt's, to the bit: on
halfway cases, the edges of the subnormals and the table, long digit
strings, and products whose low bits Eisel-Lemire's one product cannot
decide, where it hands the cell to strtod, and on short decimals, 1 to 15
digits times 10^-22 .. 10^22.  A file outside its grammar must read as
loadtxt reads it.
"""

import ctypes
import functools
import random
import subprocess
import tracemalloc
from io import BytesIO, TextIOWrapper
from unittest import mock

import numpy as np
import pytest

from spikesim import ModelParams, Trajectory, _compiled, build_oneunit, io, simulate
from spikesim.io import read_trajectory_csv, write_jump_csv, write_ode_csv
from spikesim.jump import CHANNEL_LABELS

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
        # The doubles nearest to decimals of 1, 7, 8 and 9 significant
        # digits, whose shortest digits, 16 or 17 of them before the
        # formatter strips their zeros, end in 14-15, 8-11, 7-9 and 6-9
        # zeros: around the strip's steps of 8, 4, 2 and 1.  No digits
        # ending in 16 zeros turned up among a million doubles near d * 10^e.
        "trailing zeros": np.array([float(f"{m}e{e}") for d in (1, 7, 8, 9)
                                    for m in rng.integers(10**(d - 1), 10**d, size=60).tolist()
                                    for e in range(-30, 31)]),
    }


KINDS = ["uniform bits", "powers of two", "powers of ten", "subnormals", "integers around 2^53",
         "short decimals", "trailing zeros"]


@compiled
@pytest.mark.parametrize("kind", KINDS)
def test_floats_are_written_as_their_repr(kind):
    values = _values()[kind]
    got = _float_text(values)
    expected = "\n".join(map(repr, values.tolist())) + "\n"
    if got != expected:
        wrong = [(w, g) for w, g in zip(expected.split("\n"), got.split("\n")) if w != g]
        pytest.fail(f"{len(wrong)} values written unlike repr, first (repr, written): {wrong[:5]}")


def _assert_rows_as_python_writes_them(columns, slice_rows):
    checked = io._checked_columns(columns)
    got = list(FORMATTER(checked, CHANNEL_LABELS, slice_rows))
    expected = list(io._python_rows(checked, CHANNEL_LABELS, slice_rows))
    if got != expected:
        rows = [(w, g) for w, g in zip("".join(expected).split("\n"), "".join(got).split("\n"))
                if w != g]
        pytest.fail(f"{len(rows)} rows unlike _python_rows, first (expected, written): "
                    f"{rows[:3]}")


@compiled
@pytest.mark.parametrize("slice_rows", [1, 7, 1024, 4096])
@pytest.mark.parametrize("unit", [1 / 3, 0.02, 1 / 5000, 1.0], ids=["1/3", "0.02", "1/5000", "1"])
def test_lattice_values_are_written_as_their_repr(unit, slice_rows):
    # Lattice cells repeat, and the formatter copies a repeated index's
    # text from a memo of 256 slots a column: seeded walks of +-1 from 0 and
    # from far out, indices that share a slot (k, k + 256, k + 512 and
    # k - 256), the indices 0, 2^31, 2^53 + 1 and 2^62 and their negatives,
    # and the walk again under a second unit.
    rng = np.random.default_rng(7)
    rows = 6000
    steps = rng.choice([-1, 1], size=(2, rows))
    walk = np.cumsum(steps[0])
    far = 2**62 - rows + np.cumsum(steps[1])
    shared = rng.integers(0, 6, size=rows) + 256 * rng.integers(-1, 3, size=rows)
    named = np.resize([0, 2**31, 2**53 + 1, 2**62, -2**31, -2**53 - 1, -2**62, 1], rows)
    _assert_rows_as_python_writes_them(
        [("lattice", walk, unit), ("lattice", far, unit), ("lattice", shared, unit),
         ("lattice", named, unit), ("lattice", walk, 0.7), ("label", walk % 5, 0.0)], slice_rows)


@compiled
@pytest.mark.parametrize("slice_rows", [1, 1024])
def test_rows_of_the_widest_cells_fit_their_buffer(slice_rows):
    # Every number takes FLOAT_BYTES, 24, a lattice hit copies all 24 bytes
    # of its slot, and every label is the longest: the rows fill the buffer
    # to its last byte.
    widest = -2.2250738585072014e-308
    ks = np.resize([1, 5, 1, 6, 8, 5], 3000)  # k * widest takes 24 bytes
    columns = [("float", np.full(3000, widest), 0.0), ("lattice", ks, widest),
               ("lattice", -ks, -widest),
               ("label", np.full(3000, CHANNEL_LABELS.index(max(CHANNEL_LABELS, key=len))), 0.0)]
    text = "".join(io._python_rows(io._checked_columns(columns), CHANNEL_LABELS, slice_rows))
    assert {len(cell) for cell in text.replace("\n", ",").split(",")[:-1]} == {24, 14}
    _assert_rows_as_python_writes_them(columns, slice_rows)


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


def test_kernel_compiles_without_warnings(tmp_path):
    # Compiled as it is built, so the warnings that only the optimiser
    # emits (-Wmaybe-uninitialized, -Wstringop-overflow) are checked too.
    command = _compiled.compile_command()
    try:
        result = subprocess.run([*command, "-Wall", "-Wextra", "-Werror", "-c",
                                 str(_compiled.SOURCE), "-o", str(tmp_path / "kernel.o")],
                                capture_output=True, text=True, timeout=120)
    except FileNotFoundError:
        pytest.skip(f"no C compiler {command[0]!r} here")
    assert result.returncode == 0, result.stderr


# The ctypes mirror of each struct of the kernel, by the struct's name.
MIRRORS = {"table": _compiled.Table, "run": _compiled._Run, "rk4": _compiled.Rk4,
           "column": _compiled.Column, "rows": _compiled.Rows}


def test_ctypes_mirrors_match_the_kernel_structs(tmp_path):
    # The compiler checks each field's offset and size, and each struct's
    # size, against its mirror's.
    lines = [f'#include "{_compiled.SOURCE}"']
    for name, mirror in MIRRORS.items():
        for field, _type in mirror._fields_:
            got = getattr(mirror, field)
            lines.append(f"_Static_assert(offsetof(struct {name}, {field}) == {got.offset} && "
                         f"sizeof(((struct {name} *)0)->{field}) == {got.size}, "
                         f'"{name}.{field}");')
        lines.append(f"_Static_assert(sizeof(struct {name}) == {ctypes.sizeof(mirror)}, "
                     f'"sizeof(struct {name})");')
    (tmp_path / "mirrors.c").write_text("#include <stddef.h>\n" + "\n".join(lines) + "\n")
    command = _compiled.compile_command()
    try:
        result = subprocess.run([*command, "-fsyntax-only", str(tmp_path / "mirrors.c")],
                                capture_output=True, text=True, timeout=120)
    except FileNotFoundError:
        pytest.skip(f"no C compiler {command[0]!r} here")
    assert result.returncode == 0, result.stderr
    assert set(MIRRORS.values()) == {value for value in vars(_compiled).values()
                                     if isinstance(value, type)
                                     and issubclass(value, ctypes.Structure)}


def _read_floats(cells: list[str]) -> np.ndarray:
    """``cells``, one a row, read by the raw compiled reader."""
    text = "".join(cell + "\n" for cell in cells).encode("ascii")
    (column,) = READER(BytesIO(text), [0], len(text))
    return column


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# Where a correctly rounded reader is most easily wrong: a halfway case
# (2^53 + 1), the largest subnormal and the smallest one, 1e23 (the double
# nearest it is below it), 2^53 times 10^22 and 2^53 + 1 times 10^-22, the
# edges of the power table, and cells of a fig1 jump CSV whose one product
# cannot decide their rounding, so strtod reads them (0.125 and 0.25 are
# exact doubles, which the truncated powers 10^-3 and 10^-2 put just below
# a carry).
NAMED = ["9007199254740993", "2.2250738585072011e-308", "4.9406564584124654e-324", "1e23",
         "9007199254740992e22", "9007199254740993e-22", "1e-292", "1e-293", "1e326", "1e308",
         "1.7976931348623157e308", "1.7976931348623159e308", "2.4703282292062328e-324",
         "2.4703282292062327e-324", "123456789012345678901234567890", "0e999", "-0.0",
         "0.000000000000000000000000000001e-300", "7.2057594037927933e16",
         "0.125", "0.25", "0.948953313420972", "3.031013858010841"]


def _assert_read_as_float(cells: list[str]) -> None:
    got = _bits(_read_floats(cells))
    expected = _bits([float(cell) for cell in cells])
    wrong = [cells[i] for i in np.flatnonzero(got != expected)[:5]]
    assert wrong == [], "read unlike float()"


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
    _assert_read_as_float(cells)


@compiled
def test_short_decimals_read_as_float_reads_them():
    # 100,000 decimals w * 10^q of 1 to 15 significant digits (w < 2^53)
    # and q in -22..22, either sign, with and without a fraction and an
    # exponent: where both w and 10^|q| are exact doubles.
    rng = np.random.default_rng(5)
    size = 100_000
    lengths = rng.integers(1, 16, size=size)
    digits = ["".join(map(str, row[:k])) for row, k in
              zip(rng.integers(0, 10, size=(size, 15)).tolist(), lengths.tolist())]
    points = rng.integers(0, lengths + 1).tolist()
    qs = rng.integers(-22, 23, size=size).tolist()
    styles = rng.integers(0, 3, size=size).tolist()
    signs = rng.integers(0, 2, size=size).tolist()
    cells = []
    for d, point, q, style, sign in zip(digits, points, qs, styles, signs):
        cell = (d[:point] or "0") + ("." + d[point:] if point < len(d) else "")
        e = q + len(d) - point  # written, it makes the value d * 10^q
        cell += ("", f"e{e}", f"e{e:+d}")[style]
        cells.append("-" + cell if sign else cell)
    _assert_read_as_float(cells)


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


# Bytes a hostile file may hold where the writers write a row.
HOSTILE = b"0123456789.,+-eEinfaINx_ \t\r\n\0\xff"


@compiled
def test_hostile_rows_are_refused_or_read_as_loadtxt_reads_them():
    # Mutations of the check's rows, in windows of one to eight rows: a byte
    # replaced, inserted or deleted, or a run of nines inserted.  Each is
    # read in blocks of 64, 256 and 65,536 bytes; the reader may refuse it,
    # but what it reads is loadtxt's floats, and it refuses what loadtxt
    # refuses.
    rows = "".join(io._python_rows(io._check_columns(), CHANNEL_LABELS, 7)).encode("ascii")
    rows = rows.splitlines(keepends=True)
    rng = random.Random(0)
    accepted = 0
    for _ in range(3000):
        first = rng.randrange(len(rows))
        text = bytearray(b"".join(rows[first:first + rng.randint(1, 8)]))
        at, kind = rng.randrange(len(text)), rng.randrange(4)
        if kind == 0:
            text[at] = rng.choice(HOSTILE)
        elif kind == 1:
            text.insert(at, rng.choice(HOSTILE))
        elif kind == 2:
            del text[at]
        else:
            text[at:at] = b"9" * rng.randint(1, 39)
        try:
            expected = io._loadtxt(TextIOWrapper(BytesIO(text), encoding="ascii"),
                                   [0, 1, 2, 3, 4])
        except ValueError:
            expected = None
        for block in (64, 256, 65_536):
            got = READER(BytesIO(text), [0, 1, 2, 3, 4, -1], len(text), block=block)
            if got is not None:
                assert expected is not None, bytes(text)
                assert all(np.array_equal(_bits(a), _bits(b))
                           for a, b in zip(got, expected, strict=True)), bytes(text)
                accepted += 1
    assert accepted > 0


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
