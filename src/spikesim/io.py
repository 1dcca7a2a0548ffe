"""CSV/JSON artifact writers and readers.

Every file embeds the full parameter set, seed and tool version so that it
is enough on its own to rerun the experiment.  CSV output is locale
independent: '.' decimal separator, '\\n' newlines, no grouping.
"""

import json
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .jump import CHANNEL_LABELS, JumpTrajectory
from .model import ModelParams
from .ode import Trajectory


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


def write_ode_csv(path: str | Path, traj: Trajectory, extra: dict | None = None) -> None:
    meta = {"mode": "ds", "dt": traj.dt, "sample_every": traj.sample_every}
    if extra:
        meta.update(extra)
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(traj.params, meta):
            fh.write(line + "\n")
        fh.write("t,r,n\n")
        for t, r, n in zip(traj.t, traj.r, traj.n):
            fh.write(f"{float(t)!r},{float(r)!r},{float(n)!r}\n")


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
    rs = traj.r_values()
    ns = traj.n_values()
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(spec.params, meta):
            fh.write(line + "\n")
        fh.write("t,r,n,channel\n")
        fh.write(f"{0.0!r},{traj.initial.r!r},{traj.initial.n!r},\n")
        for i in range(traj.n_events):
            fh.write(
                f"{float(traj.times[i])!r},{float(rs[i])!r},{float(ns[i])!r},"
                f"{CHANNEL_LABELS[traj.channels[i]]}\n"
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
        for a, s in zip(grid, survival):
            fh.write(f"{float(a)!r},{float(s)!r}\n")


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
        for length, amplitude in pairs:
            fh.write(f"{float(length)!r},{float(amplitude)!r}\n")


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
        dtype = [(name, "U16" if name == "channel" else "f8") for name in header]
        with warnings.catch_warnings():
            # A path with no data rows reads as empty columns.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
    columns = {name: data[name] for name in header if name != "channel"}
    if "channel" in header:
        meta["channel"] = data["channel"]
    return meta, columns
