"""The library of ``_kernel.c``: built on first use, checked once when it
is built, and loaded with ctypes.  It holds the direct-method loop and the
RK4 loop (each run a chunk at a time), the row formatter of the CSV writers
and the row reader of trajectory CSVs (fed the file a block at a time).  Either
numeric loop can also write the path CSV rows of what it computes, a slice
at a time, as it runs.

``spikesim.jump``, ``spikesim.ode`` and ``spikesim.io`` import this module
on the first call that wants the library, never at import.  The library is
compiled once per key into ``$XDG_CACHE_HOME/spikesim`` or
``~/.cache/spikesim`` (a per-user directory in the temp dir when neither can
be written), against numpy's random headers and ``libnpyrandom.a``, so it
draws from the caller's bit generator exactly as ``Generator`` does.

A build is checked once, as a whole: each of its four loops must reproduce
its Python twin on that module's probe (the ``_agrees`` functions).  Only a
library that passes all four goes into the cache; one that fails is refused
whole, and a ``.refused`` file under its name, which names the loops that
failed, keeps later processes from building or checking it again.  A
failed compile is not remembered.
"""

import ctypes
import functools
import hashlib
import os
import platform
import stat
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

# Events per call of the loop: the most a run's chunk holds, in buffers
# that each chunk of the run reuses.  A chunk's float64 arrays then take
# 128 KiB, glibc's default mmap threshold, so that a streamed run's arrays
# and its statistics' per-chunk arrays reuse freed heap rather than fault
# in fresh pages: preset fig6 and fig7 at horizon 5000 take 232 minor
# faults, against 2,569 at 65,536 events a chunk.
CHUNK_EVENTS = 1 << 14
SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The files whose bytes the build key hashes: the C source, this module, and
# the modules that hold a loop's Python twin and its check, so that a
# library's verdict is never older than the code it vouches for.
KEYED = (SOURCE, *(SOURCE.with_name(f"{name}.py")
                   for name in ("_compiled", "jump", "ode", "io")))
# A build that passes its check removes the other builds unmodified this long.
STALE_SECONDS = 7 * 24 * 3600


class Table(ctypes.Structure):
    """A process's coefficient table as the loop reads it (struct table)."""

    _fields_ = [("n_channels", ctypes.c_int64), ("r_unit", ctypes.c_double),
                ("n_unit", ctypes.c_double), ("coef", ctypes.POINTER(ctypes.c_double)),
                ("guard", ctypes.POINTER(ctypes.c_int64)), ("step", ctypes.POINTER(ctypes.c_int64))]


class _Run(ctypes.Structure):
    """Where a run stands between calls of the loop (struct run)."""

    _fields_ = [("t", ctypes.c_double), ("t_end", ctypes.c_double), ("kr", ctypes.c_int64),
                ("kn", ctypes.c_int64), ("limit", ctypes.c_int64), ("stop", ctypes.c_int64)]


def table(rows, r_unit: float, n_unit: float) -> Table:
    """The table of ``rows``, one per channel (k_rn, k_r, k_n, k_1, div,
    guard_kr, guard_kn, dkr, dkn), on a lattice with these units."""
    coef = [c for row in rows for c in row[:5]]
    pairs = ctypes.c_int64 * (2 * len(rows))
    return Table(len(rows), r_unit, n_unit, (ctypes.c_double * len(coef))(*coef),
                 pairs(*(low for row in rows for low in row[5:7])),
                 pairs(*(d for row in rows for d in row[7:])))


class Loops(NamedTuple):
    """The library's four loops, each bound to its binding below, which
    takes its Python twin's arguments and returns its twin's result."""

    run: Callable
    rk4: Callable
    formatter: Callable
    reader: Callable


@functools.cache
def library() -> Loops | None:
    """The loops of the checked library, built and checked when the cache
    holds neither it nor its refusal; None when it cannot be built or
    loaded, or was refused.  Made once per process, whatever the outcome."""
    try:
        target = cache_dir() / f"_kernel-{build_key()}.so"
        if target.exists():
            return bind(target)
        if target.with_suffix(".refused").exists():
            return None
        return build_library(target)
    except OSError:
        return None


def refused() -> tuple[str, ...]:
    """The loops (``Loops`` field names) whose check refused this key's
    build, as its ``.refused`` file names them; () when the library is in
    use, was not refused, or its refusal names none."""
    if library() is not None:
        return ()
    try:
        return tuple((cache_dir() / f"_kernel-{build_key()}.refused").read_text().split())
    except OSError:
        return ()


def bind(path: str | Path) -> Loops:
    """The loops of the library file ``path``; OSError when it cannot be
    loaded."""
    lib = ctypes.CDLL(str(path))

    def entry(name: str, result, *arguments) -> Callable:
        return ctypes.CFUNCTYPE(result, *arguments)((name, lib))

    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    # No loop calls Python, so each runs with the GIL released (``CFUNCTYPE``).
    return Loops(
        functools.partial(run, entry("spikesim_direct_method", i64, *(ptr,) * 8)),
        functools.partial(rk4, entry("spikesim_rk4", i64, *(ptr,) * 5)),
        functools.partial(format_rows, entry("spikesim_format_rows", i64, ptr, i64, i64, i64,
                                             ptr, i64, ptr)),
        functools.partial(read_rows, entry("spikesim_read_rows", i64, ptr, ptr, i64, ptr)))


def run(loop, spec, kr: int, kn: int, rng: np.random.Generator, t_end: float,
        limit: int, rows: Callable | None = None
        ) -> Iterator[tuple[tuple[np.ndarray, ...], int | None]]:
    """At most ``limit`` events of the process ``spec`` from (kr, kn) at
    t = 0, ``CHUNK_EVENTS`` at a time.  Per chunk: its event times, the
    lattice state (kr, kn) after each event and the channel indices, views
    of four buffers that the next chunk overwrites, and None, or after the
    last chunk why the loop stopped (0 limit, 1 absorbed, 2 time horizon).
    Each chunk resumes from the state, time and bit generator the last one
    left.  Given ``rows``, the loop writes each event as a jump CSV row
    (``io.write_jump_csv``'s) into a slice, a chunk ends where the slice is
    full, and ``rows`` is called with each chunk's rows before it is
    yielded: a view of the slice, which the next chunk overwrites."""
    size = min(limit, CHUNK_EVENTS)
    buffers = (np.empty(size), np.empty(size, np.int64), np.empty(size, np.int64),
               np.empty(size, np.int8))
    state = _Run(0.0, t_end, kr, kn)
    out, text = _slice(rows, _EVENT_ROW_BYTES)
    args = (ctypes.addressof(spec._table), ctypes.addressof(state),
            *(buffer.ctypes.data for buffer in buffers), out and ctypes.addressof(out))
    bitgen = rng.bit_generator
    while True:
        state.limit = min(limit, size)
        with bitgen.lock:
            count = loop(bitgen.ctypes.bit_generator, *args)
        if rows is not None:
            rows(text[:out.used])
        limit -= count
        last = state.stop or not limit
        yield tuple(buffer[:count] for buffer in buffers), state.stop if last else None
        if last:
            return


class Rk4(ctypes.Structure):
    """An RK4 run's settings, where it stands between calls of the loop, and
    its outcome (struct rk4)."""

    _fields_ = [*((name, ctypes.c_double)
                  for name in ("alpha", "beta", "gamma", "p", "h", "overshoot_limit")),
                *((name, ctypes.c_int64)
                  for name in ("n_steps", "sample_every", "capacity", "step")),
                ("r", ctypes.c_double), ("n", ctypes.c_double),
                ("clamps", ctypes.c_int64), ("fail", ctypes.c_int64),
                ("fail_value", ctypes.c_double)]


def rk4(loop, params, h: float, n_steps: int, sample_every: int, overshoot_limit: float,
        ts: np.ndarray, rs: np.ndarray, ns: np.ndarray, rows: Callable | None = None
        ) -> Iterator[tuple[tuple[np.ndarray, ...], tuple[int, int, int, float] | None]]:
    """``n_steps`` RK4 steps of size ``h`` from (rs[0], ns[0]) at t = 0:
    ``ode._rk4_python``'s chunks, one per call of the loop, each the views
    of the samples it stored in ``ts``, ``rs`` and ``ns`` from index 1 on
    (which the next call overwrites), and None, or after the last call the
    outcome.  Given ``rows``, the loop writes each sample as an ODE CSV row
    into a slice, a call also ends where the slice is full, and ``rows`` is
    handed a view of the call's rows before its samples."""
    run = Rk4(params.alpha, params.beta, params.gamma, params.p, h, overshoot_limit,
              n_steps, sample_every, len(ts), 0, rs[0], ns[0])
    out, text = _slice(rows, _SAMPLE_ROW_BYTES)
    args = (ctypes.addressof(run), ts.ctypes.data, rs.ctypes.data, ns.ctypes.data,
            out and ctypes.addressof(out))
    while True:
        stored = loop(*args)
        if rows is not None:
            rows(text[:out.used])
        last = run.fail or run.step == n_steps
        yield ((ts[1:stored], rs[1:stored], ns[1:stored]),
               (run.clamps, run.fail, run.step, run.fail_value) if last else None)
        if last:
            return


# Bytes a float takes at most: the 24 of "-2.2250738585072014e-308".
_FLOAT_BYTES = 24
# Bytes of a label's slot in the label table, and bytes past the widest row
# that the C loops' fixed-width copies may write (see ``_kernel.c``).
_LABEL_BYTES = 16
_COPY_BYTES = 16
# Bytes of the widest row of an ODE path (t, r, n) and of a jump path (t,
# r, n, channel), each with its separators.
_SAMPLE_ROW_BYTES = 3 * (_FLOAT_BYTES + 1)
_EVENT_ROW_BYTES = _SAMPLE_ROW_BYTES + _LABEL_BYTES


class Memo(ctypes.Structure):
    """A lattice column's text of its recent indices (struct memo), by slot
    k % 256: the index, the text's length (0: empty) and the text."""

    _fields_ = [("k", ctypes.c_int64 * 256), ("len", ctypes.c_uint8 * 256),
                ("text", ctypes.c_char * _FLOAT_BYTES * 256)]


class Column(ctypes.Structure):
    """One column of CSV rows as the formatter reads it (struct column)."""

    _fields_ = [("kind", ctypes.c_int64), ("values", ctypes.c_void_p), ("unit", ctypes.c_double),
                ("memo", ctypes.c_void_p), ("labels", ctypes.c_char_p),
                ("n_labels", ctypes.c_int64)]


class Slice(ctypes.Structure):
    """A numeric loop's row output (struct slice): the buffer its rows go
    to, its size and the bytes written, the table of g(m), and for a jump
    path the memos of its lattice columns and the label table."""

    _fields_ = [("buf", ctypes.c_void_p), ("size", ctypes.c_int64), ("used", ctypes.c_int64),
                ("pow10", ctypes.c_void_p), ("memos", ctypes.c_void_p * 2),
                ("labels", ctypes.c_char_p), ("n_labels", ctypes.c_int64)]


def _slice(rows: Callable | None, width: int) -> tuple[Slice | None, memoryview | None]:
    """The row output of one run of a numeric loop whose widest row takes
    ``width`` bytes, and a view of its buffer; (None, None) without
    ``rows``.  The buffer holds ``io._SLICE_ROWS`` such rows and
    ``_COPY_BYTES`` more; the memos are empty, and last the whole run."""
    if rows is None:
        return None, None
    from .io import _SLICE_ROWS
    from .jump import CHANNEL_LABELS

    buf = bytearray(_SLICE_ROWS * width + _COPY_BYTES)
    out = Slice(_address(buf), len(buf), 0, ctypes.addressof(pow10_table()), (0, 0),
                _label_table(CHANNEL_LABELS), len(CHANNEL_LABELS))
    out.held = Memo(), Memo()  # the C struct holds only their addresses
    out.memos[:] = [ctypes.addressof(memo) for memo in out.held]
    return out, memoryview(buf)


def _address(buf: bytearray) -> int:
    return ctypes.addressof((ctypes.c_char * len(buf)).from_buffer(buf))


def _label_table(labels: tuple[str, ...]) -> bytes:
    """``labels`` as the C loops read them, each padded to ``_LABEL_BYTES``;
    a ValueError when one is longer."""
    text = b"".join(label.encode("ascii").ljust(_LABEL_BYTES, b"\0") for label in labels)
    if len(text) != _LABEL_BYTES * len(labels):
        raise ValueError(f"labels must be at most {_LABEL_BYTES} bytes, got {labels}")
    return text


# Column kinds (the C enum's order): float64 values, each written as its
# repr; int64 lattice indices k, written as the repr of k * unit; int8 codes
# into the label table, written as their label.
KINDS = ("float", "lattice", "label")
# The formatter's FORMAT_OVERFLOW and FORMAT_LAYOUT (see ``_kernel.c``).
_OVERFLOW, _LAYOUT = -1, -2


@functools.cache
def pow10_table() -> ctypes.Array:
    """The formatter's g(m) = floor(10^m * 2^(127 - floor(m log2 10))) + 1
    for m = -292 .. 326, as 1238 {high, low} halves (see ``_kernel.c``); the
    reader uses g(m) - 1.  Made once per process, on the first write or
    read through the library, for both.  With b the bit length of 10^|m|,
    floor(m log2 10) is b - 1 for m >= 0 and -b for m < 0, where 10^|m| is
    no power of two."""
    powers = [1]
    for _ in range(326):
        powers.append(powers[-1] * 10)
    halves = []
    for m in range(-292, 327):
        p = powers[abs(m)]
        shift = 128 - p.bit_length()
        g = ((1 << 127 + p.bit_length()) // p if m < 0
             else p << shift if shift >= 0 else p >> -shift) + 1
        halves += (g >> 64, g & (1 << 64) - 1)
    return (ctypes.c_uint64 * len(halves))(*halves)


def format_rows(formatter, columns: list[tuple[str, np.ndarray, float]],
                labels: tuple[str, ...], slice_rows: int) -> Iterator[memoryview]:
    """The CSV lines of ``columns`` as ASCII bytes, ``slice_rows`` rows a
    slice.  Each slice is a view of one buffer, which the next slice
    overwrites: write it, or copy it, before taking the next.  Each column
    is a (kind, values, unit) triple of a kind in ``KINDS``; the caller has
    checked that the values are contiguous and 1-D, of one length, of the
    kind's dtype, and that every label code indexes ``labels``, since the C
    loop trusts all of that.  A layout other than the writers' two, all
    floats or the jump row (float, lattice, lattice, label), is a ValueError.

    The C loop copies in fixed widths past the text it writes, so its slack
    is allocated here: each label padded to ``_LABEL_BYTES``, and a buffer
    that holds ``slice_rows`` of the widest row and ``_COPY_BYTES`` more.
    Each lattice column gets one empty memo for all the table's slices.
    The layout is checked once, before the first slice, so that an empty
    table is refused as one with rows is."""
    label_text = _label_table(labels)
    memos = [Memo() if kind == "lattice" else None for kind, _values, _unit in columns]
    cells = (Column * len(columns))(*(
        Column(KINDS.index(kind), values.ctypes.data, unit,
               None if memo is None else ctypes.addressof(memo), label_text, len(labels))
        for (kind, values, unit), memo in zip(columns, memos)))
    width = sum(_LABEL_BYTES if kind == "label" else _FLOAT_BYTES + 1
                for kind, _values, _unit in columns)
    buf, powers = bytearray(slice_rows * width + _COPY_BYTES), pow10_table()
    start = _address(buf)
    view = memoryview(buf)
    if formatter(cells, len(columns), 0, 0, start, len(buf), powers) == _LAYOUT:
        raise ValueError(f"no writer writes rows of {[kind for kind, *_ in columns]}")
    n_rows = len(columns[0][1])
    for first in range(0, n_rows, slice_rows):
        size = formatter(cells, len(columns), first, min(first + slice_rows, n_rows),
                         start, len(buf), powers)
        if size == _OVERFLOW:
            raise OverflowError("CSV slice exceeds its buffer")
        yield view[:size]


class Rows(ctypes.Structure):
    """The rows read so far and where they go (struct rows)."""

    _fields_ = [("n_cells", ctypes.c_int64), ("column", ctypes.POINTER(ctypes.c_int64)),
                ("columns", ctypes.POINTER(ctypes.c_void_p)), ("count", ctypes.c_int64),
                ("capacity", ctypes.c_int64)]


# Bytes read from the file at a time.  A block ends mid-row, and the rest
# of that row opens the next block.
READ_BLOCK = 1 << 16


def read_rows(reader, fh, cells: list[int], size: int,
              block: int = READ_BLOCK) -> list[np.ndarray] | None:
    """The rows of the binary file ``fh``, from where it stands to its end
    (about ``size`` bytes), as float64 columns: cell i of each row is read
    into column ``cells[i]``, or skipped as a label where that is -1.  None
    when a row is outside the loop's grammar or longer than ``block``
    bytes, or the last one does not end with '\\n'.

    The file is read ``block`` bytes at a time.  When the columns are full
    they grow to the row count projected from the bytes read so far, and
    at the end they shrink to the rows read."""
    columns = [np.empty(1024) for _ in range(max(cells) + 1)]
    pointers = (ctypes.c_void_p * len(columns))(*(column.ctypes.data for column in columns))
    rows = Rows(len(cells), (ctypes.c_int64 * len(cells))(*cells), pointers, 0, 1024)
    buf, powers = bytearray(block), pow10_table()
    start = _address(buf)
    view = memoryview(buf)
    held = read = 0  # bytes of an unfinished row at the start of buf; bytes read into rows
    while got := fh.readinto(view[held:]):
        end, done = held + got, 0
        while True:
            count = reader(ctypes.addressof(rows), start + done, end - done, powers)
            if count < 0:
                return None
            done += count
            if rows.count < rows.capacity:
                break
            rows.capacity = max(rows.count * size // (read + done), rows.count) * 9 // 8 + 1024
            for i, column in enumerate(columns):
                # Not resize, which zero-fills the new rows: the rows not yet
                # read stay untouched, and so take no memory.
                columns[i] = np.empty(rows.capacity)
                columns[i][:rows.count] = column[:rows.count]
                pointers[i] = columns[i].ctypes.data
        read += done
        held = end - done
        if held == block:
            return None
        ctypes.memmove(start, start + done, held)
    if held:
        return None
    for column in columns:
        column.resize(rows.count, refcheck=False)  # no view of it exists
    return columns


def build_key() -> str:
    """The hash of everything the library and its verdict depend on: the
    bytes of ``KEYED``, ``CFLAGS``, numpy, Python and the platform."""
    key = hashlib.sha256()
    for path in KEYED:
        key.update(hashlib.sha256(path.read_bytes()).digest())
    for part in (CFLAGS, np.__version__, sys.version, sys.platform, platform.machine()):
        key.update(repr(part).encode())
    return key.hexdigest()[:16]


def build_library(target: Path) -> Loops | None:
    """Compile ``_kernel.c``, check the build, and put it at ``target`` when
    it passes: its loops, or None when it fails the check and ``target``'s
    ``.refused`` file, one failing loop's name a line, is left in its place.
    Every loop is checked, and one whose check raises fails it.  OSError
    when it cannot be compiled or loaded."""
    # Only a build needs them; subprocess alone takes about 8 ms to import.
    import subprocess

    from . import io, jump, ode

    static = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    fd, partial = tempfile.mkstemp(suffix=".so.tmp", dir=target.parent)
    os.close(fd)
    try:
        # Written, loaded and checked under a temporary name and renamed into
        # place, so that concurrent first uses never load a half-written or
        # unchecked library.
        subprocess.run([*compile_command(), str(SOURCE), str(static), "-lm", "-o", partial],
                       check=True, capture_output=True, timeout=300)
        loops = bind(partial)
        checks = (jump._agrees, ode._agrees, io._formatter_agrees, io._reader_agrees)
        failed = [name for name, check, loop in zip(Loops._fields, checks, loops)
                  if not _passes(check, loop)]
        if failed:
            io._write_text(target.with_suffix(".refused"), "".join(f"{name}\n" for name in failed))
            return None
        os.replace(partial, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot build the compiled library: {exc}") from exc
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    prune(target)
    return loops


def _passes(check: Callable, loop: Callable) -> bool:
    """Whether ``loop`` passes ``check``; not when the check raises, as it
    does where a formatter overflows its buffer or a reader's text is no
    table."""
    try:
        return check(loop)
    except Exception:
        return False


def prune(keep: Path) -> None:
    """Remove the other libraries and refusals in ``keep``'s directory that
    have not been modified for ``STALE_SECONDS``."""
    stale = time.time() - STALE_SECONDS
    for path in keep.parent.glob("_kernel-*"):
        try:
            if path != keep and path.stat().st_mtime < stale:
                path.unlink()
        except OSError:
            pass  # gone already, or not ours to remove


def compile_command() -> list[str]:
    """The compiler, ``CFLAGS`` and include paths that build the library."""
    import shlex
    import sysconfig

    paths = sysconfig.get_paths()
    return [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *CFLAGS,
            f"-I{np.get_include()}", f"-I{paths['include']}", f"-I{paths['platinclude']}"]


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/spikesim`` or ``~/.cache/spikesim``; a per-user
    directory in the temp dir when that cannot be made or written."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if _own_directory(cache := Path(base, "spikesim")):
        return cache
    # Looked up only here: finding the temp dir writes a file into it.
    if _own_directory(cache := Path(tempfile.gettempdir(), f"spikesim-{os.getuid()}")):
        return cache
    raise OSError("no writable cache directory for the compiled library")


def _own_directory(path: Path) -> bool:
    """Whether ``path`` is a directory of the user's own that the user can
    write; it is made, mode 0700, only when it is missing."""
    try:
        try:
            info = path.stat()
        except FileNotFoundError:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.stat()
    except OSError:
        return False
    # Only a directory of the user's own: the library in it gets loaded.
    return (stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
            and os.access(path, os.W_OK))
