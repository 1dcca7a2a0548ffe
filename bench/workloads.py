"""The benchmark's workloads: lists of `spikesim` CLI operations.

Every operation is one call of `spikesim.cli.main(argv)` made from inside the
directory that receives its artifacts, so the paths written into reports are
bare file names and digests do not depend on where the checkout lives.

Two scales exist: `full` is what the benchmark measures; `tiny` runs the same
operations on short horizons and small boxes for the harness smoke test.
"""

from dataclasses import dataclass

WORKLOADS = ("spike_stats", "sample_paths", "drift_scan")
SCALES = ("full", "tiny")

# The figure-caption parameters every preset uses (alpha, beta, p fixed).
FIG_GAMMAS = ("100", "2")

# Mirrors the parameter grid of the test suite:
# alpha x beta x gamma x p = 4 x 3 x 3 x 2 = 72 stability reports.
PARAM_GRID = [
    (a, b, g, p)
    for a in ("0.0", "0.01", "0.5", "7.0")
    for b in ("0.5", "1.0", "2.0")
    for g in ("1.0", "2.0", "100.0")
    for p in ("1.0", "7.0")
]

# spike_stats horizon: fig6 and fig7 default to 1e5 (about 100 s).  5e3 keeps
# a pass to a few seconds (about 1 M simulated events), so a run holds enough
# passes for a steady median, while the engine still takes 97% of the time.
# The tiny scale only has to exercise every code path.
SPIKE_T_END = {"full": "5000", "tiny": "200"}
# sample_paths runs its presets at their default horizon (200) at full scale.
PATH_T_END = {"full": None, "tiny": "10"}
# The paths `analyze` reads and its spike and plateau level.  At the default
# horizon the global N=50 (gamma=100) and one-unit (gamma=2) paths hold
# dozens to hundreds of plateau-spike pairs on each of seeds 0-20.  A
# path with none makes `analyze` exit 2 (correlation of an empty pair list),
# so the tiny scale reads the gamma=2 global path, which spikes early, at a
# level its 10-unit paths reach.
ANALYZED = {"full": (("fig1_global_n50", "fig5_oneunit_gamma2"), "10"),
            "tiny": (("fig2_global_n50", "fig5_oneunit_gamma2"), "2")}
# Lattice box per axis for the drift scans: 2001 x 2001 = 4.0 M states each.
DRIFT_BOX = {"full": "2000", "tiny": "100"}


@dataclass(frozen=True)
class Op:
    """One CLI call and the exit status it is expected to return."""

    name: str
    argv: tuple[str, ...]
    expect_exit: int = 0


def seeded(workload: str) -> bool:
    """Whether the workload's outputs depend on --seed.

    The drift scans and stability reports are deterministic and take no seed,
    so drift_scan is the same on every seed and always has a reference.
    """
    return workload != "drift_scan"


def build_ops(workload: str, scale: str, seed: int) -> list[Op]:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (know {', '.join(SCALES)})")
    if workload == "spike_stats":
        return _spike_stats(scale, seed)
    if workload == "sample_paths":
        return _sample_paths(scale, seed)
    if workload == "drift_scan":
        return _drift_scan(scale)
    raise ValueError(f"unknown workload {workload!r} (know {', '.join(WORKLOADS)})")


def _spike_stats(scale: str, seed: int) -> list[Op]:
    common = ("--outdir", ".", "--seed", str(seed), "--t-end", SPIKE_T_END[scale])
    return [Op(f"preset_{fig}", ("preset", fig) + common) for fig in ("fig6", "fig7")]


def _sample_paths(scale: str, seed: int) -> list[Op]:
    common = ("--outdir", ".", "--seed", str(seed))
    if PATH_T_END[scale] is not None:
        common += ("--t-end", PATH_T_END[scale])
    ops = [Op(f"preset_{fig}", ("preset", fig) + common)
           for fig in ("fig1", "fig2", "fig3", "fig5")]
    stems, level = ANALYZED[scale]
    for stem in stems:
        ops.append(Op(f"analyze_{stem}", (
            "analyze", "--input", f"{stem}_seed{seed}.csv", "--a0", level, "--thr", level,
            "--out", f"analyze_{stem}.json", "--pairs-out", f"analyze_{stem}_pairs.csv",
        )))
    return ops


def _drift_scan(scale: str) -> list[Op]:
    box = DRIFT_BOX[scale]
    ops = []
    for mode in ("oneunit", "meanfield"):
        for gamma in FIG_GAMMAS:
            name = f"lyapunov_{mode}_gamma{gamma}"
            # The mean-field scan at gamma=2 finds states outside the
            # exceptional set with drift > -epsilon and exits 2 by design.
            expect = 2 if (mode, gamma) == ("meanfield", "2") else 0
            ops.append(Op(name, (
                "lyapunov", "--mode", mode, "--gamma", gamma,
                "--box-kr", box, "--box-kn", box, "--out", f"{name}.json",
            ), expect))
    for a, b, g, p in PARAM_GRID:
        name = f"stability_a{a}_b{b}_g{g}_p{p}"
        ops.append(Op(name, (
            "stability", "--alpha", a, "--beta", b, "--gamma", g, "--p", p,
            "--out", f"{name}.json",
        )))
    return ops
