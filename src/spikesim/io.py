"""CSV/JSON artifact writers and readers.

Every file embeds the full parameter set, seed and tool version so that it
is enough on its own to rerun the experiment.  CSV output is locale
independent: '.' decimal separator, '\\n' newlines, no grouping.
"""

import functools
import json
import math
import warnings
from collections.abc import Callable, Iterator, Sequence
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
    formats = [_LatticeText(unit).__getitem__ if kind == "lattice"
               else repr if kind == "float" else labels.__getitem__
               for kind, _values, unit in columns]
    for start in range(0, len(columns[0][1]), slice_rows):
        cells = [map(fmt, values[start:start + slice_rows].tolist())
                 for fmt, (_kind, values, _unit) in zip(formats, columns)]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


@functools.cache
def _compiled_formatter() -> Callable | None:
    """The library's ``format_rows``, loaded on first use; None
    (``_python_rows`` writes) when the library cannot be built or loaded,
    or when it does not write what ``_python_rows`` writes."""
    from . import _compiled

    format_rows = _compiled.load_formatter()
    if format_rows is None:
        return None
    # Special values, subnormals, 17-digit values, powers of two from 2^-1074
    # to 2^1023 (every eighth: repr of all 2098 takes 10-20 ms in a fresh
    # interpreter, most of a short run; the tests take every one), and the
    # powers of ten around the switches between positional and exponent
    # notation with both their neighbours; beside them a small table of
    # lattice values, indices up to 2^53 + 1, and every channel label.
    twos = np.ldexp(1.0, np.r_[-1074:1024:8, -1022, 1023])
    tens = 10.0 ** np.arange(-7, 19)
    values = np.concatenate([
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
         2.225073858507201e-308, 0.1, 1 / 3, 0.30000000000000004, -1.7976931348623157e308,
         1e22, 9007199254740993.0, 123456.7890123456],
        twos * np.resize([1, -1], len(twos)), tens, np.nextafter(tens, 0.0),
        np.nextafter(tens, math.inf)])
    rows = np.arange(len(values))
    columns = _checked_columns([("float", values, 0.0),
                                ("lattice", np.resize([0, 1, 2, 7, 1000, 2**31, 2**53 + 1],
                                                      len(rows)), 1 / 3),
                                ("lattice", rows % 11, 0.02),
                                ("label", rows % len(CHANNEL_LABELS), 0.0)])
    # In slices of seven rows, so that slices end mid-table.
    got, expected = ("".join(lines(columns, CHANNEL_LABELS, 7))
                     for lines in (format_rows, _python_rows))
    return format_rows if got == expected else None


class _LatticeText(dict):
    """The text of lattice value ``k * unit`` by index ``k``.

    Each entry is made the first time its index is looked up, so the table
    holds one entry per distinct index on the path and no full-length
    temporary is built.  The value is the int64-times-float64 product that
    ``JumpTrajectory.r_values``/``n_values`` form.
    """

    def __init__(self, unit: float) -> None:
        super().__init__()
        self.unit = unit

    def __missing__(self, k: int) -> str:
        text = self[k] = repr(float(np.int64(k) * self.unit))
        return text


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
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")


def read_trajectory_csv(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a trajectory CSV back as (meta dict, column arrays): each
    ``# key=value`` header line as a str, and each numeric column (t, r, n)
    as a float64 array.  A jump CSV's channel column is not read.  A file
    with no column-header line, or a row with a missing cell or a cell that
    is not a number, is a ValueError that names the file."""
    meta: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif line:
                header = line.split(",")
                break
        else:
            raise ValueError(f"{path}: no header line found")
        names = [name for name in header if name != "channel"]
        with warnings.catch_warnings():
            # A path with no data rows reads as empty columns.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, delimiter=",", unpack=True, ndmin=2,
                                  usecols=[header.index(name) for name in names])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    return meta, dict(zip(names, data))
