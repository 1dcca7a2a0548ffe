"""CSV/JSON artifact writers and readers.

Every file embeds the full parameter set, seed and tool version so that it
is enough on its own to rerun the experiment.  CSV output is locale
independent: '.' decimal separator, '\\n' newlines, no grouping.

Rows are written by the compiled library's formatter and read back by its
reader where the library builds and passes its check; otherwise by
``_python_rows`` and ``np.loadtxt``, which give the same bytes and the same
floats.  A path CSV can also be written as its run goes (``PathCsv``), from
the rows that the run's loop writes.
"""

import itertools
import json
import math
import os
import shutil
import stat
import tempfile
import time
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict
from io import BytesIO
from itertools import islice
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .jump import CHANNEL_LABELS, JumpStream, JumpTrajectory, Termination, _event_columns
from .model import _PARAMS, ModelParams
from .ode import OdeStream, Trajectory

# Rows per write.  The formatter's buffer holds a slice of the widest rows,
# 77 kB for an ODE path and 93 kB for a jump path, under glibc's 128 KiB
# mmap threshold, whose sliding moves peak RSS.  The lattice memos last the
# whole table, so larger slices gain nothing: sample_paths' jump tables took
# 30-33 ms and its ODE tables 67-72 ms at 1024, 4096 and 16,384 rows alike.
# The RK4 and direct-method loops' row output (a path CSV written as its run
# goes) is a buffer of the same size: each loop call writes rows until it
# cannot hold one more of the widest, so a call writes 1024 rows or more,
# and the Python twins' rows are handed over 1024 rows at a time.
_SLICE_ROWS = 1024


def _meta_lines(params: ModelParams, extra: dict | None = None) -> list[str]:
    items = {"version": __version__, **{name: repr(getattr(params, name)) for name in _PARAMS}}
    if extra:
        items.update(
            {k: repr(float(v)) if isinstance(v, float) else str(v) for k, v in extra.items()}
        )
    return [f"# {key}={value}" for key, value in items.items()]


# A column's dtype by kind: float64 values written as their repr, int64
# lattice indices k written as the repr of k * unit, int8 channel codes
# written as their CHANNEL_LABELS.
_DTYPES = {"float": np.float64, "lattice": np.int64, "label": np.int8}


def _write_csv(path: str | Path, header: bytes, columns) -> None:
    """Write a CSV file: ``header`` (``_header``'s), then one line per row
    of ``columns``.  Each column is a (kind, values, unit) triple with a
    kind of ``_DTYPES`` (unit is read only for "lattice").  The rows' ASCII
    bytes are written as the compiled formatter hands them over, each slice
    straight from its buffer, or as ``_python_rows``, which gives the same
    bytes, makes them.  The columns are checked before the file is opened,
    so a rejected column leaves no file behind."""
    checked = _checked_columns(columns)
    format_rows = _compiled_formatter() or _python_rows
    with open(path, "wb") as fh:
        fh.write(header)
        for rows in format_rows(checked, CHANNEL_LABELS, _SLICE_ROWS):
            fh.write(rows)


def _header(params: ModelParams, meta: dict | None, names: tuple[str, ...],
            first_row: str = "") -> bytes:
    """A CSV file's header, as UTF-8: the ``# key=value`` lines of
    ``params`` and ``meta``, the line of column ``names``, then
    ``first_row`` as it is (a whole line, or nothing)."""
    return ("".join(line + "\n" for line in _meta_lines(params, meta))
            + ",".join(names) + "\n" + first_row).encode()


class PathCsv:
    """A path CSV written as its run goes: ``header``, then each slice of
    rows that ``write`` is handed, into a new file under a temporary name
    beside the file that ``path`` names (through any symbolic link).
    ``commit`` puts it in place, and ``discard`` removes it, so that a run
    that fails leaves no file and any file already at ``path`` as it was.
    Where ``path`` names something a new file must not replace (a FIFO, a
    device, a file with other hard links), the rows go to an unnamed
    temporary file instead, and ``commit`` writes the file through its
    name."""

    def __init__(self, path: str | Path, header: bytes) -> None:
        self.path, self._header = Path(os.path.realpath(path)), header
        try:
            target = os.stat(path)
        except FileNotFoundError:
            target = None
        if target is None or (stat.S_ISREG(target.st_mode) and target.st_nlink == 1):
            self._mode = None if target is None else stat.S_IMODE(target.st_mode)
            self._temp, self._fh = _temporary(self.path, self._mode)
        else:
            self._temp, self._fh = None, tempfile.TemporaryFile()
            self.path = Path(path)
        self._fh.write(header)

    def write(self, rows) -> None:
        self._fh.write(rows)

    def commit(self, header: bytes | None = None, key: tuple | None = None) -> None:
        """Put the file in place.  With a ``header`` other than the one it
        began with, the file is first rebuilt once, as that header followed
        by the rows, copied file to file (``os.copy_file_range``).  A file
        renamed into place is recorded for ``key``, its path's
        ``RunConfig.path_key()``, for a later run of the path to copy
        (``_begin_copies``)."""
        header = self._header if header is None else header
        if self._temp is None:
            with self._fh as rows, open(self.path, "wb") as fh:
                fh.write(header)
                fh.flush()
                rows.seek(len(self._header))
                _copy_rest(rows, fh)
            return
        self._fh.close()
        if header != self._header:
            old, (self._temp, self._fh) = self._temp, _temporary(self.path, self._mode)
            try:
                with self._fh, open(old, "rb", buffering=0) as rows:
                    self._fh.write(header)
                    self._fh.flush()
                    rows.seek(len(self._header))
                    _copy_rest(rows, self._fh)
            finally:
                os.unlink(old)
        if key is not None:
            # A modification time that no write after the rename can give
            # the file: a write stamps it with the kernel's time then, which
            # is later than ``stamp``, or the start of the clock tick that
            # ``stamp`` was read in.  So ``_IDENTITY`` tells a rewrite made
            # in that tick, which may leave the change time as it was.
            stamp = time.time_ns()
            os.utime(self._temp, ns=(stamp, stamp))
        os.replace(self._temp, self.path)
        self._temp = None
        if key is not None:
            st = os.stat(self.path)
            # Else the file system keeps coarser times, or the file has
            # been written since.
            if st.st_mtime_ns == stamp:
                _COMMITTED[key] = self.path, _IDENTITY(st)

    def discard(self) -> None:
        """Remove the file, unless it is committed."""
        self._fh.close()
        if self._temp is not None:
            os.unlink(self._temp)
            self._temp = None


def _temporary(path: Path, mode: int | None = None):
    """A new file beside ``path``, named after it, with the permission bits
    ``mode`` where given, and the file open for writing in binary."""
    for attempt in itertools.count():
        temp = path.with_name(f".{path.name}.{os.getpid()}.{attempt}.tmp")
        try:
            fh = open(temp, "xb")
        except FileExistsError:
            continue
        if mode is not None:
            os.chmod(temp, mode)
        return temp, fh


def _copy_rest(source, target) -> None:
    """Copy the rest of the file ``source`` to ``target``, each from where
    it stands: in the kernel where the platform has ``os.copy_file_range``,
    else through a buffer."""
    try:
        while os.copy_file_range(source.fileno(), target.fileno(), 1 << 30):
            pass
    except (AttributeError, OSError):
        shutil.copyfileobj(source, target)


# The path CSV this process last committed for each path key (``commit``'s
# ``key``): its real path and its ``_IDENTITY`` just after it was put in
# place.  No rows are held.
_COMMITTED: dict[tuple, tuple[Path, tuple]] = {}

# What tells a file from the same name replaced, grown, linked or rewritten,
# as ``os.stat`` gives it; the modification time, as ``commit`` sets it,
# changes with any write.
_IDENTITY = attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")


def _begin_copies(key: tuple, paths: list[Path]) -> list[PathCsv] | None:
    """Path CSVs begun at ``paths`` as copies of the file this process last
    committed for the path key ``key``, to be committed with no header;
    None, beginning none, unless that file, opened, has the ``_IDENTITY`` it
    was committed with and one link, checked on the descriptor copied
    from."""
    if key not in _COMMITTED:
        return None
    source, identity = _COMMITTED[key]
    try:
        # Without blocking, should a FIFO now stand at the name.
        fd = os.open(source, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        return None
    csvs: list[PathCsv] = []
    with open(fd, "rb", buffering=0) as fh:
        st = os.fstat(fd)
        if not (st.st_nlink == 1 and _IDENTITY(st) == identity):
            return None
        try:
            for path in paths:
                csvs.append(PathCsv(path, b""))
                fh.seek(0)
                _copy_rest(fh, csvs[-1]._fh)
        except BaseException:
            for csv in csvs:
                csv.discard()
            raise
    return csvs


def _begin_ode_csv(path: str | Path, stream: OdeStream,
                   extra: dict | None = None) -> PathCsv:
    """``write_ode_csv``'s file for the run of ``stream``, begun: its header
    and the start's row.  Its other rows are the stream's."""
    r0, n0 = stream.initial
    return PathCsv(path, _ode_header(stream.params, stream.dt, stream.sample_every, extra)
                   + f"{0.0!r},{r0!r},{n0!r}\n".encode())


def _begin_jump_csv(path: str | Path, stream: JumpStream, t_end: float | None) -> PathCsv:
    """``write_jump_csv``'s file for the run of ``stream``, begun with the
    header of a run that reaches the horizon ``t_end``.  Its other rows are
    the stream's; commit it with ``_jump_header`` of the run as it ended."""
    return PathCsv(path, _jump_header(stream, t_end, Termination.TIME_HORIZON))


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
                 slice_rows: int) -> Iterator[bytes]:
    """The CSV lines of checked ``columns`` as ASCII bytes, ``slice_rows``
    rows a slice, formatted in Python: the compiled formatter's reference,
    and its fallback."""
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
        yield ("\n".join(map(",".join, zip(*cells))) + "\n").encode("ascii")


def _compiled_formatter() -> Callable | None:
    """The checked library's ``format_rows``; None (``_python_rows`` writes)
    where it has none."""
    from . import _compiled

    return getattr(_compiled.library(), "formatter", None)


def _formatter_agrees(format_rows: Callable) -> bool:
    """Whether ``format_rows``, a build's formatter, writes the rows of each
    table of ``_layouts`` as ``_python_rows`` does, in slices of seven rows,
    so that slices end mid-table.  Each slice is copied before the next
    overwrites it."""
    return all(b"".join(map(bytes, format_rows(columns, CHANNEL_LABELS, 7))) ==
               b"".join(_python_rows(columns, CHANNEL_LABELS, 7))
               for columns in _layouts())


def _layouts() -> list[list[tuple[str, np.ndarray, float]]]:
    """Tables of the columns of ``_check_columns`` in each of the C
    formatter's two layouts: its float column alone, beside itself rolled by
    one row, and beside that and the column reversed (the all-float loop);
    the float column, the walk, the shared-slot indices and the labels, and
    then the walk and the shared-slot indices under each other's units, so
    that a memo kept past its table writes the second table's indices as
    the first one's values, and last the large indices and the small
    repeated ones (the jump-row loop)."""
    floats, large, small, walk, shared, labels = _check_columns()
    kind, values, unit = floats
    others = [(kind, np.roll(values, 1), unit), (kind, values[::-1].copy(), unit)]
    return [[floats], [floats, others[0]], [floats, *others], [floats, walk, shared, labels],
            [floats, (*walk[:2], shared[2]), (*shared[:2], walk[2]), labels],
            [floats, large, small, labels]]


def _check_columns() -> list[tuple[str, np.ndarray, float]]:
    """The rows the checks of the formatter and the reader use: special
    values, subnormals, 17-digit values, every power of two from 2^-1074 to
    2^1023, and the powers of ten around the switches between positional
    and exponent notation with both their neighbours; beside them lattice
    values of four units: indices up to 2^53 + 1, small indices repeated,
    a walk of steps of +-1, and indices that share a slot of the
    formatter's memo (k, k + 256, k + 512 and k - 256, interleaved), which
    repeat under the other units too; and every channel label."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = 10.0 ** np.arange(-7, 19)
    values = np.concatenate([
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
         2.225073858507201e-308, 0.1, 1 / 3, 0.30000000000000004, -1.7976931348623157e308,
         1e22, 9007199254740993.0, 123456.7890123456],
        twos * np.resize([1, -1], len(twos)), tens, np.nextafter(tens, 0.0),
        np.nextafter(tens, math.inf)])
    rows = np.arange(len(values))
    walk = np.cumsum(np.random.default_rng(0).choice([-1, 1], len(rows)))
    return _checked_columns([("float", values, 0.0),
                             ("lattice", np.resize([0, 1, 2, 7, 1000, 2**31, 2**53 + 1],
                                                   len(rows)), 1 / 3),
                             ("lattice", rows % 11, 0.02),
                             ("lattice", walk, 1 / 5000),
                             ("lattice", np.resize([3, 259, 3, 515, 1, -253, 2, 259], len(rows)),
                              1.0),
                             ("label", rows % len(CHANNEL_LABELS), 0.0)])


def write_ode_csv(path: str | Path, traj: Trajectory, extra: dict | None = None) -> None:
    _write_csv(path, _ode_header(traj.params, traj.dt, traj.sample_every, extra),
               [("float", column, 0.0) for column in (traj.t, traj.r, traj.n)])


def _ode_header(params: ModelParams, dt: float, sample_every: int, extra: dict | None) -> bytes:
    meta = {"mode": "ds", "dt": dt, "sample_every": sample_every, **(extra or {})}
    return _header(params, meta, ("t", "r", "n"))


def write_jump_csv(path: str | Path, traj: JumpTrajectory) -> None:
    """The path as one row for the initial state, with no channel, then one
    row per event: its time, the state after it and its channel label.  A
    state's values are the products that ``JumpTrajectory.step_r``/``step_n``
    form."""
    _write_csv(path, _jump_header(traj, traj.t_end, traj.terminated_by),
               _event_columns(traj.spec, traj.times, traj.krs, traj.kns, traj.channels))


def _jump_header(run: JumpTrajectory | JumpStream, t_end: float | None,
                terminated_by: Termination) -> bytes:
    """The header of ``write_jump_csv``'s file for the run of ``run`` (a
    trajectory or a stream), which covers [0, t_end] and ended by
    ``terminated_by``, with the initial state's row."""
    spec, initial = run.spec, run.initial
    meta = {
        "mode": spec.kind.value,
        "n_units": spec.n_units,
        "seed": run.seed,
        "t_end": t_end,
        "terminated_by": terminated_by.value,
    }
    if spec.anchor is not None:
        meta["anchor_r"] = spec.anchor.r
        meta["anchor_n"] = spec.anchor.n
    r_unit, n_unit = float(spec.r_unit), float(spec.n_unit)
    first_row = f"{0.0!r},{initial.kr * r_unit!r},{initial.kn * n_unit!r},\n"
    return _header(spec.params, meta, ("t", "r", "n", "channel"), first_row)


def write_survival_csv(
    path: str | Path,
    grid: np.ndarray,
    survival: np.ndarray,
    params: ModelParams,
    extra: dict | None = None,
) -> None:
    _write_csv(path, _header(params, extra, ("a", "survival")),
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
    _write_csv(path, _header(params, extra, ("plateau_length", "amplitude")),
               [("float", table[:, 0], 0.0), ("float", table[:, 1], 0.0)])


def write_json(path: str | Path, payload: dict, params: ModelParams | None = None) -> None:
    doc = {"version": __version__}
    if params is not None:
        doc["params"] = asdict(params)
    doc.update(payload)
    # Encoded before the file is opened, so a value JSON cannot hold (a
    # number that is not finite) leaves no file behind.
    _write_text(path, _json_text(doc))


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as it is: a JSON document, or the names of
    the loops that failed a compiled library's check."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, byte for byte,
    with a top-level int64 (m, 2) array (a drift report's ``set_A``) written
    as its list of pairs.  With an indent the stdlib encodes in pure Python,
    so such an array is left empty there and written by one join in the
    encoder's layout instead: at indent 2 the members of the top-level
    object, and only they, start a line with two spaces and a quote.  Any
    other array is the encoder's to refuse."""
    pairs = {key: value for key, value in doc.items()
             if isinstance(key, str) and isinstance(value, np.ndarray)
             and value.dtype == np.int64 and value.shape[1:] == (2,)}
    text = json.dumps({**doc, **dict.fromkeys(pairs, [])}, indent=2, allow_nan=False)
    for key, value in pairs.items():
        if len(value):
            head = f"\n  {json.dumps(key)}: "
            rows = ",\n".join(["    [\n      %d,\n      %d\n    ]"] * len(value))
            rows %= tuple(value.ravel().tolist())
            text = text.replace(head + "[]", f"{head}[\n{rows}\n  ]", 1)
    return text + "\n"


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
    text = b"".join(_python_rows(_check_columns(), CHANNEL_LABELS, 7)) + (
        b"9007199254740993,1e23,2.2250738585072011e-308,0.0,1e-5,leak\n"
        b"4.9406564584124654e-324,-0,123456789012345678901234567890e-40,-1.5,2,\n")
    expected = _loadtxt(text.decode("ascii").splitlines(), [0, 1, 2, 3, 4])
    # In blocks of 256 bytes, so that rows cross the ends of blocks.
    got = read_rows(BytesIO(text), [0, 1, 2, 3, 4, -1], len(text), block=256)
    return got is not None and all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                                   for a, b in zip(got, expected))
