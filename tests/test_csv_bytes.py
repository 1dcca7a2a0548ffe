"""Golden-bytes gate for the CSV writers.

The sha256 digests below were taken from the per-row writers before they
became columnar.  The long ODE, jump, survival and pairs files hold more
rows than one write slice, so slice boundaries are crossed.  The
``# version=`` line is left out of each digest, so a version bump moves
none of them.  Any change to the row layout, to the float formatting (the
shortest round-trip ``repr``) or to the header lines changes a digest: the
bytes are part of the reproducibility contract.
"""

import hashlib

import numpy as np
import pytest

from spikesim import (
    ModelParams,
    PathSeries,
    State,
    build_global,
    build_meanfield,
    build_oneunit,
    detect_plateaus,
    detect_spikes,
    integrate,
    pair_plateau_spike,
    simulate,
    tail_survival,
)
from spikesim.io import write_jump_csv, write_ode_csv, write_pairs_csv, write_survival_csv

P100 = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
P2 = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)


def _oneunit_gamma2():
    spec = build_oneunit(P2)
    return simulate(spec, spec.lattice_state(0.0, 0.0), t_end=300.0, seed=2)


def _oneunit_levels():
    series = PathSeries.from_jump(_oneunit_gamma2())
    spikes = detect_spikes(series, 10.0)
    return spikes, detect_plateaus(series, 10.0)


def ode_fig1(path):
    traj = integrate(P100, State(0.01, 0.01), 20.0, dt=1e-3, sample_every=1)
    write_ode_csv(path, traj, {"r0": 0.01, "n0": 0.01})


def ode_fig2_strided(path):
    traj = integrate(P2, State(0.01, 0.01), 50.0, dt=1e-3, sample_every=7)
    write_ode_csv(path, traj, {"r0": 0.01, "n0": 0.01})


def jump_global_n50(path):
    spec = build_global(P100, 50)
    write_jump_csv(path, simulate(spec, spec.lattice_state(0.01, 0.01), t_end=200.0,
                                  max_jumps=20_000, seed=1))


def jump_meanfield(path):
    spec = build_meanfield(P100)
    write_jump_csv(path, simulate(spec, spec.lattice_state(0.01, 0.01), t_end=50.0, seed=7))


def jump_oneunit(path):
    write_jump_csv(path, _oneunit_gamma2())


def jump_no_events(path):
    spec = build_oneunit(P2)
    write_jump_csv(path, simulate(spec, spec.lattice_state(0.0, 0.0), max_jumps=0, seed=1))


def survival_oneunit(path):
    spikes, _plateaus = _oneunit_levels()
    grid, survival = tail_survival([s.amplitude for s in spikes], 10.0)
    write_survival_csv(path, grid, survival, P2, {"a0": 10.0, "seed": 2, "mode": "oneunit"})


def survival_long(path):
    k = np.arange(20_000)
    write_survival_csv(path, 10.0 + 0.37 * k, 1.0 / (1.0 + k), P100, {"a0": 10.0})


def pairs_oneunit(path):
    spikes, plateaus = _oneunit_levels()
    write_pairs_csv(path, pair_plateau_spike(plateaus, spikes), P2,
                    {"a0": 10.0, "thr": 10.0, "seed": 2})


def pairs_long(path):
    pairs = [(0.1 * k, 1.0 / (k + 3)) for k in range(20_000)]
    write_pairs_csv(path, pairs, P100, {"a0": 10.0, "thr": 0.0})


# writer -> digest of its file; the comment gives the file's data rows.
CASES = {
    ode_fig1: "9356b65c18e4be7d7115763b787b9d1295c0867faec58b4e593d60cafbca952e",  # 20001
    ode_fig2_strided: "3912762575c9dcfc9f63216275c181e5362ed2f36e174aa07393b608efb3b9da",  # 7144
    jump_global_n50: "5b327d6ffc75f26ae66a460896dd86049bbed4ef36bd918f195c7e8aae718754",  # 20001
    jump_meanfield: "533732a6bc00c559f644bfb8976f3368c09be35980eed89d6dbc819bd9855d18",  # 1182
    jump_oneunit: "88e65a56f22727b67edbc08fa82bf5d1f3000db14d71f474199b49c4f86e8d76",  # 10220
    jump_no_events: "396f6aee9667c60f1834c407ab3057e8e5f02afe699a58b4e820921ba6887ad5",  # 1
    survival_oneunit: "4fa1555b0b0b44fa1e93de5a5f3b13f04139b4bd275406e14476960ac5cbc0ef",  # 21
    survival_long: "6eb7304d91fa46bd1a8ea2a4adc55f155754d7bf15a6cecc9c67f111ad3e29d3",  # 20000
    pairs_oneunit: "44e665923ddb565e225aa8719a7b1304c0177b1496af107fc8706ef31014b2b2",  # 232
    pairs_long: "d90c7af8bbcc3ae391e62633b0a73ecf6d6712f0e0b0c4c3697dcce2465af153",  # 20000
}


def digest(path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(
        b"".join(line for line in lines if not line.startswith(b"# version="))
    ).hexdigest()


@pytest.mark.parametrize("write", list(CASES), ids=lambda fn: fn.__name__)
def test_csv_bytes_are_frozen(tmp_path, write):
    path = tmp_path / "out.csv"
    write(path)
    assert digest(path) == CASES[write]
