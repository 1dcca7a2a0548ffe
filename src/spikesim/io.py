"""CSV/JSON artifact writers and readers.

Every file embeds the full parameter set, seed and tool version so that it
is enough on its own to rerun the experiment.  CSV output is locale
independent: '.' decimal separator, '\\n' newlines, no grouping.

Rows are written by the compiled library's formatter and read back by its
reader where the library builds and passes its check; otherwise by
``_python_rows`` and ``np.loadtxt``, which give the same bytes and the same
floats.
"""

import json
import math
import os
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from io import BytesIO
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .jump import CHANNEL_LABELS, JumpTrajectory
from .model import ModelParams
from .ode import Trajectory

# Rows per write.  A slice's text is about 100 kB.  Slices of 8192 rows
# wrote no faster, and on some seeds their larger temporaries left the heap
# fragmented enough to raise sample_paths' peak RSS by about 9 MB.
_SLICE_ROWS = 1024


def _meta_lines(params: ModelParams, extra: dict | None = None) -> list[str]:
    items = {
        "version": __version__,
        "alpha": repr(params.alpha),
        "beta": repr(params.beta),
        "gamma": repr(params.gamma),
        "p": repr(params.p),
    }
    if extra:
        items.update(
            {k: repr(float(v)) if isinstance(v, float) else str(v) for k, v in extra.items()}
        )
    return [f"# {key}={value}" for key, value in items.items()]


# A column's dtype by kind: float64 values written as their repr, int64
# lattice indices k written as the repr of k * unit, int8 channel codes
# written as their CHANNEL_LABELS.
_DTYPES = {"float": np.float64, "lattice": np.int64, "label": np.int8}


def _write_csv(path: str | Path, params: ModelParams, meta: dict | None, names: tuple[str, ...],
               columns, first_row: str = "") -> None:
    """Write a CSV file: the ``# key=value`` lines of ``params`` and
    ``meta``, the line of column ``names``, ``first_row`` as it is (a whole
    line, or nothing), then one line per row of ``columns``.  Each column is
    a (kind, values, unit) triple with a kind of ``_DTYPES`` (unit is read
    only for "lattice").  The rows go through the compiled formatter where
    it is available, else ``_python_rows``, which gives the same bytes.
    The columns are checked before the file is opened, so a rejected column
    leaves no file behind."""
    checked = _checked_columns(columns)
    format_rows = _compiled_formatter() or _python_rows
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\n" for line in _meta_lines(params, meta))
                 + ",".join(names) + "\n" + first_row)
        for text in format_rows(checked, CHANNEL_LABELS, _SLICE_ROWS):
            fh.write(text)


def _checked_columns(columns) -> list[tuple[str, np.ndarray, float]]:
    """The columns as contiguous 1-D arrays of their kind's dtype, of one
    length and with every channel code a label index; a ValueError
    otherwise.  Checked before either path, so that a bad code never
    reaches the C loop's label table, and is no label on the Python path."""
    checked = []
    for kind, values, unit in columns:
        values = np.asarray(values)
        if kind == "label" and values.size and not (
                0 <= values.min() and values.max() < len(CHANNEL_LABELS)):
            raise ValueError(f"channel codes must be in [0, {len(CHANNEL_LABELS)}), got "
                             f"{values.min()} .. {values.max()}")
        checked.append((kind, np.ascontiguousarray(values, dtype=_DTYPES[kind]), float(unit)))
    shapes = [values.shape for _kind, values, _unit in checked]
    if any(shape != shapes[0] for shape in shapes) or len(shapes[0]) != 1:
        raise ValueError(f"expected columns of one length, got shapes {shapes}")
    return checked


def _python_rows(columns: list[tuple[str, np.ndarray, float]], labels: tuple[str, ...],
                 slice_rows: int) -> Iterator[str]:
    """The CSV lines of checked ``columns``, ``slice_rows`` rows per string,
    formatted in Python: the compiled formatter's reference, and its
    fallback."""
    for start in range(0, len(columns[0][1]), slice_rows):
        cells = []
        for kind, values, unit in columns:
            part = values[start:start + slice_rows]
            if kind == "label":
                cells.append(map(labels.__getitem__, part.tolist()))
            else:
                # A lattice value is the int64-times-float64 product that
                # ``JumpTrajectory.step_r``/``step_n`` form.
                cells.append(map(repr, (part * unit if kind == "lattice" else part).tolist()))
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _compiled_formatter() -> Callable | None:
    """The checked library's ``format_rows``; None (``_python_rows`` writes)
    where it has none."""
    from . import _compiled

    return getattr(_compiled.library(), "formatter", None)


def _formatter_agrees(format_rows: Callable) -> bool:
    """Whether ``format_rows``, a build's formatter, writes the rows of
    ``_check_columns`` as ``_python_rows`` does, in slices of seven rows, so
    that slices end mid-table."""
    return "".join(format_rows(_check_columns(), CHANNEL_LABELS, 7)) == \
        "".join(_python_rows(_check_columns(), CHANNEL_LABELS, 7))


def _check_columns() -> list[tuple[str, np.ndarray, float]]:
    """The rows the checks of the formatter and the reader use: special
    values, subnormals, 17-digit values, every power of two from 2^-1074 to
    2^1023, and the powers of ten around the switches between positional
    and exponent notation with both their neighbours; beside them a small
    table of lattice values, indices up to 2^53 + 1, and every channel
    label."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = 10.0 ** np.arange(-7, 19)
    values = np.concatenate([
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
         2.225073858507201e-308, 0.1, 1 / 3, 0.30000000000000004, -1.7976931348623157e308,
         1e22, 9007199254740993.0, 123456.7890123456],
        twos * np.resize([1, -1], len(twos)), tens, np.nextafter(tens, 0.0),
        np.nextafter(tens, math.inf)])
    rows = np.arange(len(values))
    return _checked_columns([("float", values, 0.0),
                             ("lattice", np.resize([0, 1, 2, 7, 1000, 2**31, 2**53 + 1],
                                                   len(rows)), 1 / 3),
                             ("lattice", rows % 11, 0.02),
                             ("label", rows % len(CHANNEL_LABELS), 0.0)])


def write_ode_csv(path: str | Path, traj: Trajectory, extra: dict | None = None) -> None:
    meta = {"mode": "ds", "dt": traj.dt, "sample_every": traj.sample_every, **(extra or {})}
    _write_csv(path, traj.params, meta, ("t", "r", "n"),
               [("float", column, 0.0) for column in (traj.t, traj.r, traj.n)])


def write_jump_csv(path: str | Path, traj: JumpTrajectory) -> None:
    """The path as one row for the initial state, with no channel, then one
    row per event: its time, the state after it and its channel label.  A
    state's values are the products that ``JumpTrajectory.step_r``/``step_n``
    form."""
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
    r_unit, n_unit = float(spec.r_unit), float(spec.n_unit)
    first_row = f"{0.0!r},{traj.initial.kr * r_unit!r},{traj.initial.kn * n_unit!r},\n"
    _write_csv(path, spec.params, meta, ("t", "r", "n", "channel"),
               [("float", traj.times, 0.0), ("lattice", traj.krs, r_unit),
                ("lattice", traj.kns, n_unit), ("label", traj.channels, 0.0)], first_row)


def write_survival_csv(
    path: str | Path,
    grid: np.ndarray,
    survival: np.ndarray,
    params: ModelParams,
    extra: dict | None = None,
) -> None:
    _write_csv(path, params, extra, ("a", "survival"),
               [("float", grid, 0.0), ("float", survival, 0.0)])


def write_pairs_csv(
    path: str | Path,
    pairs: np.ndarray | Sequence[tuple[float, float]],
    params: ModelParams,
    extra: dict | None = None,
) -> None:
    """One row per (length, amplitude) pair: an (m, 2) array or a sequence
    of pairs, an empty sequence being no pairs.  Anything else is a
    ValueError, raised before the file is opened."""
    table = np.asarray(pairs, dtype=np.float64)
    if table.shape == (0,):
        table = table.reshape(0, 2)
    if table.ndim != 2 or table.shape[1] != 2:
        raise ValueError(f"expected (length, amplitude) pairs, got shape {table.shape}")
    _write_csv(path, params, extra, ("plateau_length", "amplitude"),
               [("float", table[:, 0], 0.0), ("float", table[:, 1], 0.0)])


def write_json(path: str | Path, payload: dict, params: ModelParams | None = None) -> None:
    doc = {"version": __version__}
    if params is not None:
        doc["params"] = {
            "alpha": params.alpha,
            "beta": params.beta,
            "gamma": params.gamma,
            "p": params.p,
            "z": params.z,
        }
    doc.update(payload)
    # Encoded before the file is opened, so a value JSON cannot hold (a
    # number that is not finite) leaves no file behind.
    text = _json_text(doc)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, byte for byte.
    With an indent the stdlib encodes in pure Python, so a top-level list of
    int pairs (a drift report's ``set_A``) is left empty there and written
    by one join in the encoder's layout instead: at indent 2 the members of
    the top-level object, and only they, start a line with two spaces and a
    quote."""
    pairs = {key: value for key, value in doc.items()
             if isinstance(key, str) and _is_int_pairs(value)}
    text = json.dumps({**doc, **dict.fromkeys(pairs, [])}, indent=2, allow_nan=False)
    for key, value in pairs.items():
        head = f"\n  {json.dumps(key)}: "
        rows = ",\n".join(["    [\n      %d,\n      %d\n    ]"] * len(value))
        rows %= tuple(chain.from_iterable(value))
        text = text.replace(head + "[]", f"{head}[\n{rows}\n  ]", 1)
    return text + "\n"


def _is_int_pairs(value) -> bool:
    """Whether ``value`` is a non-empty list of two-item lists of exact ints
    (the encoder writes a bool, an int subclass, as true or false)."""
    return (type(value) is list and set(map(type, value)) == {list}
            and set(map(len, value)) == {2}
            and set(map(type, chain.from_iterable(value))) == {int})


def read_trajectory_csv(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a trajectory CSV back as (meta dict, column arrays): each
    ``# key=value`` header line as a str, and each numeric column (t, r, n)
    as a float64 array.  A jump CSV's channel column is not read.  A file
    with no column-header line is a ValueError that names the file; so is a
    row with a missing cell or a cell that is not a number, and the error
    names the row's line as well.

    A file as the writers write it is read by the compiled reader where it
    is available; any other file, or any file without it, by
    ``np.loadtxt``.  Both read every number to the same float."""
    return _read_compiled(path) or _read_text(path)


def _read_compiled(path: str | Path) -> tuple[dict, dict[str, np.ndarray]] | None:
    """``read_trajectory_csv`` by the compiled reader; None when it is not
    available, or when the file is not as the writers write it (a header
    that is not ASCII or holds a '\\r', or a row outside the reader's
    grammar).  The file is read a block at a time, never whole."""
    read_rows = _compiled_reader()
    if read_rows is None:
        return None
    with open(path, "rb") as fh:
        try:
            meta, header, _lines = _read_header(_ascii_lines(fh), path)
        except ValueError:
            return None
        names, usecols = _numeric_columns(header)
        columns = read_rows(fh, [usecols.index(i) if i in usecols else -1
                                 for i in range(len(header))],
                            os.fstat(fh.fileno()).st_size - fh.tell())
    return None if columns is None else (meta, dict(zip(names, columns)))


def _ascii_lines(fh) -> Iterator[str]:
    """The lines of the binary file ``fh``, up to the first that is not
    ASCII or holds a '\\r', where text mode could split or decode it
    otherwise."""
    for line in iter(fh.readline, b""):
        if not line.isascii() or b"\r" in line:
            return
        yield line.decode("ascii")


def _read_text(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """``read_trajectory_csv`` by ``np.loadtxt``, for any file it reads."""
    with open(path) as fh:
        meta, header, lines = _read_header(fh, path)
        names, usecols = _numeric_columns(header)
        try:
            data = _loadtxt(fh, usecols)
        except ValueError as exc:
            fh.seek(0)
            _raise_first_bad_row(islice(fh, lines, None), lines + 1, usecols, path)
            raise ValueError(f"{path}: {exc}") from exc
    return meta, dict(zip(names, data))


def _read_header(lines: Iterable[str], path: str | Path) -> tuple[dict, list[str], int]:
    """The ``# key=value`` lines as a dict of str, the column names, and
    the count of lines up to and including the column-header line."""
    meta: dict = {}
    for count, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            return meta, line.split(","), count
    raise ValueError(f"{path}: no header line found")


def _numeric_columns(header: list[str]) -> tuple[list[str], list[int]]:
    """The names of the columns read, each once, and their cell indices."""
    names = list(dict.fromkeys(name for name in header if name != "channel"))
    return names, [header.index(name) for name in names]


def _loadtxt(lines: Iterable[str], usecols: list[int]) -> np.ndarray:
    """The cells ``usecols`` of ``lines``, one float64 row per column."""
    with warnings.catch_warnings():
        # A path with no data rows reads as empty columns.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", unpack=True, ndmin=2, usecols=usecols)


# Rows ``_raise_first_bad_row`` hands loadtxt at a time.
_SEARCH_ROWS = 4096


def _raise_first_bad_row(lines: Iterator[str], first: int, usecols: list[int],
                         path: str | Path) -> None:
    """Raise loadtxt's error for the first of ``lines``, the file's lines
    from line ``first`` on, that loadtxt cannot read, with the file name and
    that line in place of loadtxt's row and column.  The lines are tried a
    block at a time, and one at a time in the first block that fails."""
    numbered = enumerate(lines, first)
    while block := list(islice(numbered, _SEARCH_ROWS)):
        try:
            _loadtxt([line for _number, line in block], usecols)
        except ValueError:
            for number, line in block:
                try:
                    _loadtxt([line], usecols)
                except ValueError as exc:
                    reason = str(exc).split(" at row ")[0]
                    raise ValueError(f"{path}: line {number}: {reason}") from None


def _compiled_reader() -> Callable | None:
    """The checked library's ``read_rows``; None (loadtxt reads) where it
    has none."""
    from . import _compiled

    return getattr(_compiled.library(), "reader", None)


def _reader_agrees(read_rows: Callable) -> bool:
    """Whether ``read_rows``, a build's reader, reads the rows of
    ``_check_columns`` to the floats loadtxt reads, bit for bit.  Beside the
    rows written, decimals no repr is: two exact ties (2^53 + 1 and 1e23),
    the largest and smallest subnormals, and long digit strings."""
    text = "".join(_python_rows(_check_columns(), CHANNEL_LABELS, 7)) + (
        "9007199254740993,1e23,2.2250738585072011e-308,leak\n"
        "4.9406564584124654e-324,-0,123456789012345678901234567890e-40,\n")
    expected = _loadtxt(text.splitlines(), [0, 1, 2])
    # In blocks of 256 bytes, so that rows cross the ends of blocks.
    got = read_rows(BytesIO(text.encode("ascii")), [0, 1, 2, -1], len(text), block=256)
    return got is not None and all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                                   for a, b in zip(got, expected))
