"""The library of ``_kernel.c``: built on first use and loaded with ctypes.
It holds the direct-method loop (run a chunk at a time), the RK4 loop, the
row formatter of the CSV writers and the row reader of trajectory CSVs (fed
the file a block at a time).

``spikesim.jump``, ``spikesim.ode`` and ``spikesim.io`` import this module
on the first call that wants the library, never at import.  The library is
compiled once per C source, flags, numpy, Python and platform into
``$XDG_CACHE_HOME/spikesim`` or ``~/.cache/spikesim`` (a per-user directory
in the temp dir when neither can be written), against numpy's random headers
and ``libnpyrandom.a``, so it draws from the caller's bit generator exactly
as ``Generator`` does.
"""

import ctypes
import functools
import hashlib
import math
import os
import platform
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Events per call of the loop.  A run copies each chunk onto its time and
# channel buffers, so it holds at most one chunk beyond its 9 bytes an event.
CHUNK_EVENTS = 1 << 16
SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


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


# One handle per library file, however many entry points are taken from it.
_open = functools.cache(ctypes.CDLL)


def library() -> ctypes.CDLL | None:
    """The library, built if it is not in the cache; None when it cannot be
    built (no compiler, headers or static library) or loaded."""
    try:
        return _open(str(build_library()))
    except OSError:
        return None


def _entry(name: str, prototype) -> Callable | None:
    """The library's function ``name`` declared as ``prototype``, or None
    when the library or the function cannot be had."""
    lib = library()
    try:
        return None if lib is None else prototype((name, lib))
    except AttributeError:
        return None


def load() -> Callable | None:
    """The library's direct-method loop, for ``run`` and ``step``, or None."""
    return _entry("spikesim_direct_method",
                  ctypes.CFUNCTYPE(ctypes.c_int64, *(ctypes.c_void_p,) * 5))


def run(loop, tab: Table, kr: int, kn: int, rng: np.random.Generator, t_end: float,
        limit: int) -> tuple[array, bytearray, int]:
    """At most ``limit`` events from (kr, kn) at t = 0: event times, channel
    indices and why the loop stopped (0 limit, 1 absorbed, 2 time horizon).
    Each chunk resumes from the state, time and bit generator the last one
    left."""
    times, picks = array("d"), bytearray()
    size = min(limit, CHUNK_EVENTS)
    time_buf, pick_buf = array("d", bytes(8 * size)), array("b", bytes(size))
    state = _Run(0.0, t_end, kr, kn)
    args = (ctypes.addressof(tab), ctypes.addressof(state),
            time_buf.buffer_info()[0], pick_buf.buffer_info()[0])
    bitgen = rng.bit_generator
    with bitgen.lock:
        while True:
            state.limit = min(limit - len(picks), size)
            count = loop(bitgen.ctypes.bit_generator, *args)
            times += time_buf[:count]
            picks += pick_buf[:count]
            if state.stop or len(picks) == limit:
                return times, picks, state.stop


def step(loop, tab: Table, kr: int, kn: int,
         rng: np.random.Generator) -> tuple[float, int] | None:
    """One event of ``run`` from (kr, kn) with no time horizon, into a few
    bytes made for it rather than a run's buffers: its time and channel
    index, or None when (kr, kn) is absorbing."""
    state, time, pick = _Run(0.0, math.inf, kr, kn, 1), ctypes.c_double(), ctypes.c_int8()
    bitgen = rng.bit_generator
    with bitgen.lock:
        count = loop(bitgen.ctypes.bit_generator, ctypes.addressof(tab), ctypes.addressof(state),
                     ctypes.addressof(time), ctypes.addressof(pick))
    return (time.value, pick.value) if count else None


class Rk4(ctypes.Structure):
    """An RK4 run's settings and, after the loop, its outcome (struct rk4)."""

    _fields_ = [*((name, ctypes.c_double)
                  for name in ("alpha", "beta", "gamma", "p", "h", "overshoot_limit")),
                *((name, ctypes.c_int64)
                  for name in ("n_steps", "sample_every", "clamps", "fail", "fail_step")),
                ("fail_value", ctypes.c_double)]


def load_rk4() -> Callable | None:
    """``rk4`` bound to the library's RK4 loop, or None."""
    loop = _entry("spikesim_rk4", ctypes.CFUNCTYPE(ctypes.c_int64, *(ctypes.c_void_p,) * 4))
    return None if loop is None else functools.partial(rk4, loop)


# What failed a step, by the loop's fail code: a non-finite state, or r or n
# below the overshoot limit.
_FAILURES = (None, "non-finite", "r", "n")


def rk4(loop, params, h: float, n_steps: int, sample_every: int, overshoot_limit: float,
        ts: np.ndarray, rs: np.ndarray, ns: np.ndarray) -> tuple[int, int, tuple | None]:
    """``n_steps`` RK4 steps of size ``h`` from (rs[0], ns[0]) at t = 0, the
    samples stored in the float64 arrays ``ts``, ``rs`` and ``ns``: the
    samples stored, the clamp count, and None or, when a step fails, (what
    failed it, the step, the value below the limit)."""
    run = Rk4(params.alpha, params.beta, params.gamma, params.p, h, overshoot_limit,
              n_steps, sample_every)
    kept = loop(ctypes.addressof(run), ts.ctypes.data, rs.ctypes.data, ns.ctypes.data)
    failure = _FAILURES[run.fail]
    return kept, run.clamps, None if failure is None else (failure, run.fail_step, run.fail_value)


class Column(ctypes.Structure):
    """One column of CSV rows as the formatter reads it (struct column)."""

    _fields_ = [("kind", ctypes.c_int64), ("values", ctypes.c_void_p), ("unit", ctypes.c_double),
                ("labels", ctypes.POINTER(ctypes.c_char_p))]


# Column kinds (the C enum's order): float64 values, each written as its
# repr; int64 lattice indices k, written as the repr of k * unit; int8 codes
# into the label table, written as their label.
KINDS = ("float", "lattice", "label")
# Bytes a float takes at most: the 24 of "-2.2250738585072014e-308".
_FLOAT_BYTES = 24


def load_formatter() -> Callable | None:
    """``format_rows`` bound to the library's row formatter and its power
    table, or None.  It calls no Python, so it runs with the GIL released
    (``CFUNCTYPE``)."""
    formatter = _entry("spikesim_format_rows",
                       ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                                        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                                        ctypes.c_int64, ctypes.c_void_p))
    return None if formatter is None else functools.partial(format_rows, formatter,
                                                            pow10_table())


@functools.cache
def pow10_table() -> ctypes.Array:
    """The formatter's g(m) = floor(10^m * 2^(127 - floor(m log2 10))) + 1
    for m = -292 .. 326, as 1238 {high, low} halves (see ``_kernel.c``); the
    reader uses g(m) - 1.  Made once per process for both.  With b the bit
    length of 10^|m|, floor(m log2 10) is b - 1 for m >= 0 and -b for
    m < 0, where 10^|m| is no power of two."""
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


def format_rows(formatter, powers: ctypes.Array, columns: list[tuple[str, np.ndarray, float]],
                labels: tuple[str, ...], slice_rows: int) -> Iterator[str]:
    """The CSV lines of ``columns``, ``slice_rows`` rows per string, with
    ``powers`` the ``pow10_table()``.  Each column is a (kind, values,
    unit) triple of a kind in ``KINDS``; the caller has checked that the
    values are contiguous and 1-D, of one length, of the kind's dtype, and
    that every label code indexes ``labels``, since the C loop trusts all
    of that."""
    label_text = (ctypes.c_char_p * len(labels))(*(label.encode("ascii") for label in labels))
    cells = (Column * len(columns))(*(Column(KINDS.index(kind), values.ctypes.data, unit,
                                             label_text)
                                      for kind, values, unit in columns))
    width = sum(max(map(len, labels)) + 1 if kind == "label" else _FLOAT_BYTES + 1
                for kind, _values, _unit in columns)
    buf = ctypes.create_string_buffer(slice_rows * width)
    n_rows = len(columns[0][1])
    for start in range(0, n_rows, slice_rows):
        size = formatter(cells, len(columns), start, min(start + slice_rows, n_rows),
                         buf, len(buf), powers)
        if size < 0:
            raise OverflowError("CSV slice exceeds its buffer")
        yield ctypes.string_at(buf, size).decode("ascii")


class Rows(ctypes.Structure):
    """The rows read so far and where they go (struct rows)."""

    _fields_ = [("n_cells", ctypes.c_int64), ("column", ctypes.POINTER(ctypes.c_int64)),
                ("columns", ctypes.POINTER(ctypes.c_void_p)), ("count", ctypes.c_int64),
                ("capacity", ctypes.c_int64)]


# Bytes read from the file at a time.  A block ends mid-row, and the rest
# of that row opens the next block.
READ_BLOCK = 1 << 16


def load_reader() -> Callable | None:
    """``read_rows`` bound to the library's row reader and the power table,
    or None.  It calls no Python, so it runs with the GIL released
    (``CFUNCTYPE``)."""
    reader = _entry("spikesim_read_rows",
                    ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                                     ctypes.c_int64, ctypes.c_void_p))
    return None if reader is None else functools.partial(read_rows, reader, pow10_table())


def read_rows(reader, powers: ctypes.Array, fh, cells: list[int], size: int,
              block: int = READ_BLOCK) -> list[np.ndarray] | None:
    """The rows of the binary file ``fh``, from where it stands to its end
    (about ``size`` bytes), as float64 columns: cell i of each row is read
    into column ``cells[i]``, or skipped as a label where that is -1.  None
    when a row is outside the loop's grammar or longer than ``block``
    bytes, or the last one does not end with '\\n'.  ``powers`` is the
    ``pow10_table()``.

    The file is read ``block`` bytes at a time.  When the columns are full
    they grow to the row count projected from the bytes read so far, and
    at the end they shrink to the rows read."""
    columns = [np.empty(1024) for _ in range(max(cells) + 1)]
    pointers = (ctypes.c_void_p * len(columns))(*(column.ctypes.data for column in columns))
    rows = Rows(len(cells), (ctypes.c_int64 * len(cells))(*cells), pointers, 0, 1024)
    buf = bytearray(block)
    start = ctypes.addressof((ctypes.c_char * block).from_buffer(buf))
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


def build_library() -> Path:
    """Compile ``_kernel.c`` into the cache directory, unless a library built
    from the same source, flags, numpy, Python and platform is there."""
    key = hashlib.sha256(SOURCE.read_bytes())
    for part in (CFLAGS, np.__version__, sys.version, sys.platform, platform.machine()):
        key.update(repr(part).encode())
    target = cache_dir() / f"_kernel-{key.hexdigest()[:16]}.so"
    if target.exists():
        return target

    # Only a build needs it; subprocess alone takes about 8 ms to import.
    import subprocess

    static = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    fd, partial = tempfile.mkstemp(suffix=".so.tmp", dir=target.parent)
    os.close(fd)
    try:
        # Written under a temporary name and renamed into place, so that
        # concurrent first uses never load a half-written library.
        subprocess.run([*compile_command(), str(SOURCE), str(static), "-lm", "-o", partial],
                       check=True, capture_output=True, timeout=300)
        os.replace(partial, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot build the compiled library: {exc}") from exc
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


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
    for cache in (Path(base, "spikesim"), Path(tempfile.gettempdir(), f"spikesim-{os.getuid()}")):
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        # Only a directory of the user's own: the library in it gets loaded.
        if cache.stat().st_uid == os.getuid() and os.access(cache, os.W_OK):
            return cache
    raise OSError("no writable cache directory for the compiled library")
