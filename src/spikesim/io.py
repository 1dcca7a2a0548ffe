"""CSV/JSON artifact writers and readers.

Every file embeds the full parameter set, seed and tool version so that it
is enough on its own to rerun the experiment.  CSV output is locale
independent: '.' decimal separator, '\\n' newlines, no grouping.
"""

import json
import warnings
from collections.abc import Callable
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
        _write_rows(fh, *((_floats(column), repr) for column in (traj.t, traj.r, traj.n)))


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
        _write_rows(
            fh,
            (_floats(traj.times), repr),
            (traj.krs, _LatticeText(float(spec.r_unit)).__getitem__),
            (traj.kns, _LatticeText(float(spec.n_unit)).__getitem__),
            (traj.channels, CHANNEL_LABELS.__getitem__),
        )


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
        _write_rows(fh, (_floats(grid), repr), (_floats(survival), repr))


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
        _write_rows(fh, (table[:, 0], repr), (table[:, 1], repr))


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
