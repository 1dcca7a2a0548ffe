"""CSV/JSON artifact writers and readers.

Every file embeds the full parameter set, seed and tool version so that it
is enough on its own to rerun the experiment.  CSV output is locale
independent: '.' decimal separator, '\\n' newlines, no grouping.
"""

import functools
import json
import math
import warnings
from collections.abc import Callable
from io import StringIO
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
# The reader's channel column: wide enough for the longest label and no
# wider, since it is most of the memory a read row takes.
_CHANNEL_DTYPE = f"U{max(map(len, CHANNEL_LABELS))}"


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


def _write_rows(fh, *columns: tuple[np.ndarray, Callable]) -> None:
    """Write one CSV line per row of ``columns``, given as (values, format)
    pairs of equal length, ``_SLICE_ROWS`` rows per ``fh.write``."""
    n_rows = len(columns[0][0])
    for start in range(0, n_rows, _SLICE_ROWS):
        stop = start + _SLICE_ROWS
        cells = [map(fmt, values[start:stop].tolist()) for values, fmt in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _floats(values) -> np.ndarray:
    # Every value is written as the repr of a Python float.
    return np.asarray(values, dtype=np.float64)


# A column's dtype by kind: float64 values written as their repr, int64
# lattice indices k written as the repr of k * unit, int8 channel codes
# written as their CHANNEL_LABELS.
_DTYPES = {"float": np.float64, "lattice": np.int64, "label": np.int8}


def _write_columns(fh, *columns: tuple[str, object, float]) -> None:
    """Write one CSV line per row of equal-length ``columns``, each a (kind,
    values, unit) triple with a kind of ``_DTYPES`` (unit is read only for
    "lattice"): through the compiled formatter where it is available, else
    ``_write_rows``, which gives the same bytes."""
    checked = _checked_columns(columns)
    format_rows = _compiled_formatter()
    if format_rows is None:
        _write_python(fh, checked)
        return
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


def _write_python(fh, columns: list[tuple[str, np.ndarray, float]]) -> None:
    """``_write_rows`` on checked columns: the reference the compiled
    formatter is held to, and its fallback."""
    formats = {"float": repr, "label": CHANNEL_LABELS.__getitem__}
    _write_rows(fh, *((values, _LatticeText(unit).__getitem__ if kind == "lattice"
                       else formats[kind]) for kind, values, unit in columns))


def _write_floats(fh, *columns) -> None:
    """Write one CSV line per row of equal-length float ``columns``, each
    value as its ``repr``."""
    _write_columns(fh, *(("float", column, 0.0) for column in columns))


@functools.cache
def _compiled_formatter() -> Callable | None:
    """The library's ``format_rows``, loaded on first use; None
    (``_write_rows`` writes) when the library cannot be built or loaded, or
    when it does not write what ``_write_rows`` writes."""
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
    expected = StringIO()
    _write_python(expected, columns)
    # In slices of seven rows, so that slices end mid-table.
    got = "".join(format_rows(columns, CHANNEL_LABELS, 7))
    return format_rows if got == expected.getvalue() else None


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
    meta = {"mode": "ds", "dt": traj.dt, "sample_every": traj.sample_every}
    if extra:
        meta.update(extra)
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(traj.params, meta):
            fh.write(line + "\n")
        fh.write("t,r,n\n")
        _write_floats(fh, traj.t, traj.r, traj.n)


def write_jump_csv(path: str | Path, traj: JumpTrajectory) -> None:
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
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(spec.params, meta):
            fh.write(line + "\n")
        fh.write("t,r,n,channel\n")
        fh.write(f"{0.0!r},{traj.initial.r!r},{traj.initial.n!r},\n")
        _write_columns(fh, ("float", traj.times, 0.0), ("lattice", traj.krs, spec.r_unit),
                       ("lattice", traj.kns, spec.n_unit), ("label", traj.channels, 0.0))


def write_survival_csv(
    path: str | Path,
    grid: np.ndarray,
    survival: np.ndarray,
    params: ModelParams,
    extra: dict | None = None,
) -> None:
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(params, extra):
            fh.write(line + "\n")
        fh.write("a,survival\n")
        _write_floats(fh, grid, survival)


def write_pairs_csv(
    path: str | Path,
    pairs: list[tuple[float, float]],
    params: ModelParams,
    extra: dict | None = None,
) -> None:
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(params, extra):
            fh.write(line + "\n")
        fh.write("plateau_length,amplitude\n")
        table = _floats(pairs).reshape(-1, 2)
        _write_floats(fh, table[:, 0], table[:, 1])


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
    """Read a trajectory CSV back as (meta dict, column arrays).

    The channel column, when present, is returned as an array of labels
    under the 'channel' key of the meta dict.
    """
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
        dtype = [(name, _CHANNEL_DTYPE if name == "channel" else "f8") for name in header]
        with warnings.catch_warnings():
            # A path with no data rows reads as empty columns.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
    columns = {name: data[name] for name in header if name != "channel"}
    if "channel" in header:
        meta["channel"] = data["channel"]
    return meta, columns
