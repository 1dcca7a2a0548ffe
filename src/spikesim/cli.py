"""Command-line front end: run trajectories, stability and drift reports,
spike analyses, and the figure-reproduction presets, writing CSV/JSON files.

Every option of OPTION_DEFAULTS that a command takes is resolved by
precedence: built-in defaults < config file (flat key=value lines; ds,
stability, simulate and lyapunov take --config) < SPIKESIM_* environment
variables < command-line flags.  analyze takes its levels --a0/--thr from
SPIKESIM_A0/SPIKESIM_THR too.  preset --seed/--t-end and lyapunov
--box-kr/--box-kn are flag-only.  Exit codes: 0 success, 1 usage error,
2 runtime error.
"""

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__, io
from .jump import (
    JumpStream,
    JumpTrajectory,
    ProcessKind,
    build_global,
    build_meanfield,
    build_oneunit,
    engine_status,
    simulate_chunks,
)
from .lyapunov import scan_drift_condition
from .model import _PARAMS, ModelParams, State, stability_report
from .ode import OdeStream, Trajectory, integrate
from .spikes import (
    InsufficientDataError,
    LlnGap,
    PathSeries,
    correlation,
    detect_plateaus,
    detect_spikes,
    fit_exponential,
    _scan_path,
    pair_plateau_spike,
    tail_survival,
)

ENV_PREFIX = "SPIKESIM_"

# Every resolvable option, once: name -> (type, default).  A command's
# ``--name`` flags are made from it, and resolved in its order.  A run option
# that no source sets is None here and takes RunConfig's default.
OPTION_DEFAULTS: dict[str, tuple[type, object]] = {
    "alpha": (float, 0.01),
    "beta": (float, 1.0),
    "gamma": (float, 100.0),
    "p": (float, 7.0),
    "n_units": (int, 10),
    "seed": (int, None),
    "t_end": (float, None),
    "max_jumps": (int, None),
    "r0": (float, 0.01),
    "n0": (float, 0.01),
    "a0": (float, None),
    "thr": (float, None),
    "dt": (float, None),
    "epsilon": (float, 0.1),
}


class UsageError(ValueError):
    pass


@contextmanager
def _argument_checks():
    """Report the ValueError of a library argument check as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@dataclass
class RunConfig:
    """One trajectory-producing run plus optional analyses.  It is checked
    when it is made, so a run that cannot be done, or whose ``*_out`` names
    a file it would not write, fails before anything is simulated or
    written."""

    params: ModelParams
    mode: str  # ds | global | meanfield | oneunit
    n_units: int = 1
    initial: State = State(0.0, 0.0)
    t_end: float | None = 200.0
    max_jumps: int | None = None
    dt: float = 1e-3
    seed: int = 1
    out: str | None = None
    a0: float | None = None
    thr: float | None = None
    lln_reference: bool = False
    report_out: str | None = None
    pairs_out: str | None = None
    survival_out: str | None = None
    label: str = "run"

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.t_end is None:
            if self.mode == "ds":
                raise UsageError("ds mode needs --t-end")
            if self.lln_reference:
                raise UsageError("--lln-reference needs a horizon (--t-end)")
        elif not (0 < self.t_end < math.inf):
            raise UsageError(f"t_end must be finite and > 0, got {self.t_end}")
        _check_levels(self.a0, self.thr)
        written = self.artifacts()
        for kind, needs in _NEEDS.items():
            if getattr(self, f"{kind}_out") and kind not in written:
                raise UsageError(f"--{kind}-out writes nothing without {needs}")

    def path_key(self) -> tuple:
        """Everything the simulated or integrated path and its CSV depend on:
        an ODE path takes no seed, unit count or jump cap."""
        if self.mode == "ds":
            return self.mode, self.params, self.initial, self.t_end, self.dt
        return (self.mode, self.params, self.n_units, self.initial, self.t_end,
                self.max_jumps, self.dt, self.seed)

    def artifacts(self, outdir: str | Path = ".") -> dict[str, Path]:
        """The files the run writes, by kind, in the order it writes them: the
        path (an ODE run always; a jump run when ``out`` names it or no level
        is set, since a statistics-only run has no use for its large path
        CSV), the survival curve given ``a0``, the plateau-spike pairs given
        both levels, and the report given a level or ``lln_reference``.  A
        file that ``out``/``*_out`` does not name goes in ``outdir`` under
        the run's label."""
        spikes, plateaus = self.a0 is not None, self.thr is not None
        plan = (
            ("path", self.out, self.mode == "ds" or self.out or not (spikes or plateaus),
             f"{self.label}.csv" if self.mode == "ds" else f"{self.label}_seed{self.seed}.csv"),
            ("survival", self.survival_out, spikes, f"{self.label}_survival.csv"),
            ("pairs", self.pairs_out, spikes and plateaus, f"{self.label}_pairs.csv"),
            ("report", self.report_out, spikes or plateaus or self.lln_reference,
             f"{self.label}_report.json"),
        )
        return {kind: Path(named) if named else Path(outdir) / name
                for kind, named, written, name in plan if written}


def preset(name: str) -> list[RunConfig]:
    """Figure-reproduction recipes: caption parameters plus documented
    defaults (horizon 200 for sample paths, 1e5 for statistics; seed 1)."""
    p100 = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
    p2 = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)
    start = State(0.01, 0.01)

    def path_runs(params: ModelParams, tag: str) -> list[RunConfig]:
        return [
            RunConfig(params=params, mode="ds", initial=start, label=f"{tag}_ds"),
            RunConfig(params=params, mode="global", n_units=10, initial=start,
                      label=f"{tag}_global_n10"),
            RunConfig(params=params, mode="global", n_units=50, initial=start,
                      label=f"{tag}_global_n50"),
        ]

    if name == "fig1":
        return path_runs(p100, "fig1")
    if name == "fig2":
        return path_runs(p2, "fig2")
    if name == "fig3":
        return [
            RunConfig(params=p100, mode="ds", initial=start, label="fig3_ds_gamma100"),
            RunConfig(params=p2, mode="ds", initial=start, label="fig3_ds_gamma2"),
            RunConfig(params=p100, mode="meanfield", initial=start,
                      label="fig3_meanfield_gamma100"),
            RunConfig(params=p2, mode="meanfield", initial=start,
                      label="fig3_meanfield_gamma2"),
        ]
    if name == "fig5":
        return [
            RunConfig(params=p100, mode="oneunit", label="fig5_oneunit_gamma100"),
            RunConfig(params=p2, mode="oneunit", label="fig5_oneunit_gamma2"),
        ]
    if name == "fig6":
        # Amplitude-tail statistics; trajectories are not kept, only the
        # survival curves and fits.
        return [
            RunConfig(params=p100, mode="oneunit", t_end=1e5, a0=10.0,
                      label="fig6_oneunit_gamma100"),
            RunConfig(params=p2, mode="oneunit", t_end=1e5, a0=20.0,
                      label="fig6_oneunit_gamma2"),
        ]
    if name == "fig7":
        # Plateau-amplitude scatter data under both plateau definitions.
        runs = []
        for params, tag, a0 in ((p100, "gamma100", 10.0), (p2, "gamma2", 20.0)):
            for thr in (0.0, 10.0):
                runs.append(
                    RunConfig(params=params, mode="oneunit", t_end=1e5, a0=a0, thr=thr,
                              label=f"fig7_oneunit_{tag}_thr{int(thr)}")
                )
        return runs
    raise UsageError(f"unknown preset {name!r} (know fig1, fig2, fig3, fig5, fig6, fig7)")


def simulate_run(*configs: RunConfig) -> JumpStream | OdeStream:
    """The path that ``configs``, RunConfigs of one ``path_key()``, analyse,
    as a stream that ``analyse_group`` runs once, writing the path CSVs as
    it goes: the ODE solution in ds mode, else one jump-process run.
    Arguments the library rejects raise UsageError."""
    config = configs[0]
    with _argument_checks():
        if config.mode == "ds":
            return OdeStream(config.params, config.initial, config.t_end, dt=config.dt)
        spec = _build_spec(config)
        initial = spec.lattice_state(config.initial.r, config.initial.n)
        return simulate_chunks(spec, initial, t_end=config.t_end, max_jumps=config.max_jumps,
                               seed=config.seed)


def analyse_group(
    configs: list[RunConfig], path: Trajectory | JumpTrajectory | JumpStream | OdeStream,
    outdir: str | Path = ".",
) -> Iterator[Path]:
    """Write the artifacts of each of ``configs``, RunConfigs that share the
    path ``path`` (as ``simulate_run`` makes it, or a held trajectory, whose
    path CSV is not written here), in turn, yielding each once written.  The
    path runs once, before any file is put in place: its rows go to the path
    CSVs, begun under temporary names, and its chunks to the scans for each
    a0 and thr of the configs and, for ``lln_reference``, to the gap from the
    ODE path, integrated first.  So a run that fails, or a gap whose window
    the path does not cover, leaves no file.  A group that writes its path
    CSVs alone, whose path this process has already written, copies that
    file and does not run (``_begin_path_csvs``)."""
    outdir = Path(outdir)
    csvs: dict[int, io.PathCsv] = {}
    try:
        with _argument_checks():
            config = configs[0]
            gap = (LlnGap(integrate(config.params, config.initial, config.t_end, dt=config.dt),
                          config.t_end)
                   if config.mode != "ds" and any(c.lln_reference for c in configs) else None)
            if _begin_path_csvs(configs, path, outdir, csvs):
                spikes_at, plateaus_at = _scan_path(path, {c.a0 for c in configs} - {None},
                                                    {c.thr for c in configs} - {None}, gap)
            else:
                path, spikes_at, plateaus_at = None, {}, {}
        lln = None if gap is None else gap.close(path.t_end)
        yield from _write_artifacts(configs, path, outdir, csvs, spikes_at, plateaus_at, lln)
    finally:
        for csv in csvs.values():
            csv.discard()


def _begin_path_csvs(configs: list[RunConfig], path, outdir: Path,
                     csvs: dict[int, io.PathCsv]) -> bool:
    """Begin the path CSVs of ``configs`` into ``csvs``, by index, where
    ``path`` is a stream, and say whether the path has still to run.  It
    has not where each config writes its path CSV alone and each is a copy
    of the one this process last committed for their path key
    (``io._begin_copies``); else each slice of its rows goes to every one."""
    if not isinstance(path, (JumpStream, OdeStream)):
        return True
    files = [config.artifacts(outdir) for config in configs]
    if any("path" in kinds for kinds in files):
        outdir.mkdir(parents=True, exist_ok=True)
    if all(kinds.keys() == {"path"} for kinds in files):
        copies = io._begin_copies(configs[0].path_key(), [kinds["path"] for kinds in files])
        if copies is not None:
            csvs.update(enumerate(copies))
            return False
    for i, (config, kinds) in enumerate(zip(configs, files)):
        if "path" in kinds:
            csvs[i] = (io._begin_ode_csv(kinds["path"], path,
                                         {"r0": config.initial.r, "n0": config.initial.n})
                       if config.mode == "ds" else
                       io._begin_jump_csv(kinds["path"], path, config.t_end))
    if csvs:
        writes = [csv.write for csv in csvs.values()]
        path.rows = writes[0] if len(writes) == 1 else lambda rows: [w(rows) for w in writes]
    return True


def _write_artifacts(configs: list[RunConfig], path, outdir: Path, csvs: dict[int, io.PathCsv],
                     spikes_at: dict, plateaus_at: dict, lln: float | None) -> Iterator[Path]:
    """``analyse_group``'s artifacts once the path has run (``path`` None
    where each path CSV is a copy): each config's in turn, its begun path
    CSV (``csvs``) put in place as its first."""
    for i, config in enumerate(configs):
        files = config.artifacts(outdir)
        outdir.mkdir(parents=True, exist_ok=True)

        if i in csvs:
            # Removed only once committed, so that a commit that fails is
            # discarded with the others.
            csvs[i].commit(None if path is None or config.mode == "ds" else
                           io._jump_header(path, path.t_end, path.terminated_by),
                           config.path_key())
            del csvs[i]
            yield files["path"]

        stats, amps, pairs = _analyse(config.a0, config.thr, spikes_at.get(config.a0),
                                      plateaus_at.get(config.thr))
        if "survival" in files:
            # Header only when no spike exceeds a0.
            grid, survival = tail_survival(amps, config.a0) if len(amps) else ((), ())
            io.write_survival_csv(
                files["survival"], grid, survival, config.params,
                {"a0": config.a0, "seed": config.seed, "mode": config.mode},
            )
            yield files["survival"]
        if "pairs" in files:
            io.write_pairs_csv(
                files["pairs"], pairs, config.params,
                {"a0": config.a0, "thr": config.thr, "seed": config.seed},
            )
            yield files["pairs"]

        if "report" in files:
            report: dict = {"mode": config.mode, "seed": config.seed, "label": config.label}
            if config.mode != "ds":
                report["n_events"] = path.n_events
                report["terminated_by"] = path.terminated_by.value
            report.update(stats)
            if config.lln_reference and lln is not None:
                report["lln_sup_distance"] = lln
            io.write_json(files["report"], report, config.params)
            yield files["report"]


def _analyse(
    a0: float | None, thr: float | None, spikes: np.recarray | None, plateaus: np.recarray | None,
) -> tuple[dict, np.ndarray | None, np.ndarray | None]:
    """The spike, tail-fit, plateau, pairing and correlation report of a
    path's ``spikes`` above ``a0`` and ``plateaus`` at or below ``thr``
    (each None without its level), with the spike amplitudes (None without
    ``a0``) and the plateau-spike pairs (None unless both levels are
    given)."""
    report: dict = {}
    amps = pairs = None
    if a0 is not None:
        amps = spikes.amplitude
        report["spikes"] = {"a0": a0, "count": len(spikes)}
        try:
            report["spikes"]["tail_fit"] = fit_exponential(amps, a0).to_dict()
        except InsufficientDataError as exc:
            report["spikes"]["tail_fit"] = None
            report["spikes"]["note"] = str(exc)
    if thr is not None:
        report["plateaus"] = {"thr": thr, "count": len(plateaus)}
        if spikes is not None:
            pairs = pair_plateau_spike(plateaus, spikes)
            try:
                report["correlation"] = correlation(pairs).to_dict()
            except InsufficientDataError as exc:
                report["correlation"] = {"note": str(exc)}
    return report, amps, pairs


def _check_levels(a0: float | None, thr: float | None) -> None:
    """Reject spike and plateau levels the analysis cannot use, before
    anything is simulated or written."""
    if a0 is not None and not (math.isfinite(a0) and a0 > 0):
        raise UsageError(f"a0 must be finite and > 0, got {a0}")
    if thr is not None and not (math.isfinite(thr) and thr >= 0):
        raise UsageError(f"thr must be finite and >= 0, got {thr}")


# What each optional artifact needs, by kind: a ``--<kind>-out`` flag that
# names a file the run would not write is a usage error.
_NEEDS = {"survival": "--a0", "pairs": "both --a0 and --thr",
          "report": "--a0, --thr or --lln-reference"}


def _check_paths(written: dict[str, str | Path | None], read: dict[str, str | None]) -> None:
    """Reject a command two of whose files resolve to one path, where one
    write would replace the other file: the files it writes and those it
    reads, each keyed by what it holds.  Checked before anything is
    simulated, read or written."""
    seen: dict[str, str] = {}
    for name, path in [*read.items(), *written.items()]:
        if path:
            key = os.path.realpath(path)
            if key in seen:
                raise UsageError(f"{path} would be both the {seen[key]} and the {name}")
            seen[key] = name


def _build_spec(config: RunConfig):
    if config.mode == "global":
        return build_global(config.params, config.n_units)
    if config.mode == "meanfield":
        return build_meanfield(config.params)
    if config.mode == "oneunit":
        return build_oneunit(config.params)
    raise UsageError(f"unknown mode {config.mode!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 1.
    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Version(argparse.Action):
    """--version: the package version and the jump engine in use, which is
    built here if it is not built yet, with the loops whose check refused
    the library where that is why the engine is "python"."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0,
                         help="show the version and the jump engine, then exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"spikesim {__version__} (jump engine: {engine_status()})")
        parser.exit()


def _add_options(sub: argparse.ArgumentParser, *names: str, **helps: str) -> None:
    """Add the table options ``names`` to ``sub`` as ``--name`` flags (dashes
    for underscores) of the table's type, each with its help from ``helps``."""
    for name in names:
        sub.add_argument("--" + name.replace("_", "-"), dest=name,
                         type=OPTION_DEFAULTS[name][0], help=helps.get(name))


_LEVEL_HELP = {"a0": "spike threshold; enables tail analysis",
              "thr": "plateau threshold; enables pairing"}


def build_parser() -> _Parser:
    parser = _Parser(prog="spikesim", description=__doc__)
    parser.add_argument("--version", action=_Version)
    subs = parser.add_subparsers(dest="command", required=True)

    ds = subs.add_parser("ds", help="integrate the deterministic system")
    _add_options(ds, *_PARAMS, "r0", "n0", "t_end", "dt")
    ds.add_argument("--out", required=True)
    # A ds run is a simulate run of the ODE, without analyses.
    ds.set_defaults(mode="ds", lln_reference=False, report_out=None, pairs_out=None,
                    survival_out=None)

    st = subs.add_parser("stability", help="stationary point, eigenvalues, regime")
    _add_options(st, *_PARAMS)
    st.add_argument("--out", required=True)

    sim = subs.add_parser("simulate", help="simulate a jump process")
    sim.add_argument("--mode", choices=["global", "meanfield", "oneunit"], required=True)
    _add_options(sim, *_PARAMS, "n_units", "seed", "t_end", "max_jumps", "r0", "n0", "a0", "thr",
                 **_LEVEL_HELP)
    sim.add_argument("--lln-reference", action="store_true",
                     help="also integrate the ODE and report the sup distance")
    sim.add_argument("--out", required=True)
    sim.add_argument("--report-out", dest="report_out")
    sim.add_argument("--pairs-out", dest="pairs_out")
    sim.add_argument("--survival-out", dest="survival_out")

    an = subs.add_parser("analyze", help="spike/plateau analysis of a trajectory CSV")
    an.add_argument("--input", required=True)
    _add_options(an, "a0", "thr", **_LEVEL_HELP)
    an.add_argument("--out", required=True)
    an.add_argument("--pairs-out", dest="pairs_out")

    ly = subs.add_parser("lyapunov", help="drift-condition scan")
    ly.add_argument("--mode", choices=["meanfield", "oneunit"], required=True)
    _add_options(ly, *_PARAMS, "epsilon")
    ly.add_argument("--box-kr", type=int, dest="box_kr")
    ly.add_argument("--box-kn", type=int, dest="box_kn")
    ly.add_argument("--out", required=True)

    for sub in (ds, st, sim, ly):
        sub.add_argument("--config", help="flat key=value config file")

    pr = subs.add_parser("preset", help="run a figure-reproduction recipe")
    pr.add_argument("name", help="fig1 | fig2 | fig3 | fig5 | fig6 | fig7")
    pr.add_argument("--outdir", default=".")
    # Flag-only overrides of the recipe: preset resolves no option.
    _add_options(pr, "seed", "t_end", t_end="override the preset horizon (all runs)")
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every ``main`` call parses with, built on the first.  Each
    ``parse_args`` fills a fresh namespace, so no call sees another's."""
    return build_parser()


def _read_config_file(path: str | None) -> dict[str, object]:
    """The options a config file sets, converted to their types."""
    if not path:
        return {}
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line without '=': {raw!r}")
        key = key.strip()
        if key not in OPTION_DEFAULTS:
            raise UsageError(f"config file {path}: unknown key {key!r}")
        values[key] = _convert(key, value.strip(), f"config file {path}")
    return values


def _convert(name: str, text: str, source: str):
    typ = OPTION_DEFAULTS[name][0]
    try:
        return typ(text)
    except ValueError:
        raise UsageError(f"{source}: {name}={text!r} is not a valid {typ.__name__}") from None


def _resolve_options(args: argparse.Namespace) -> dict[str, object]:
    """The value of each table option the command declares (each that is an
    attribute of ``args``), in table order, by defaults < config file <
    environment < flags."""
    file_values = _read_config_file(getattr(args, "config", None))
    values: dict[str, object] = {}
    for name, (_type, default) in OPTION_DEFAULTS.items():
        if not hasattr(args, name):
            continue
        env_name = ENV_PREFIX + name.upper()
        env, flag = os.environ.get(env_name), getattr(args, name)
        value = file_values.get(name, default)
        if env is not None:
            value = _convert(name, env, f"environment variable {env_name}")
        values[name] = value if flag is None else flag
    return values


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"spikesim: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: bad paths, caps, blowups
        print(f"spikesim: runtime error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "preset":
        return _run_preset(args)
    if args.command in ("ds", "stability", "lyapunov"):
        _check_paths({"output": args.out}, {"config": args.config})
    options = _resolve_options(args)
    if args.command == "analyze":
        return _run_analyze(args, options["a0"], options["thr"])
    try:
        params = ModelParams(**{name: options.pop(name) for name in _PARAMS})
    except ValueError as exc:
        raise UsageError(f"invalid parameter combination: {exc}") from exc

    if args.command == "stability":
        with _argument_checks():
            report = stability_report(params)
        io.write_json(args.out, report.to_dict(), params)
        return 0

    if args.command in ("ds", "simulate"):
        # An option no source sets takes RunConfig's default, but a jump
        # count alone bounds the run unless a horizon is set too.
        options = {name: value for name, value in options.items() if value is not None}
        if "max_jumps" in options:
            options.setdefault("t_end", None)
        initial = State(options.pop("r0"), options.pop("n0"))
        config = RunConfig(params=params, mode=args.mode, initial=initial,
                           lln_reference=args.lln_reference, out=args.out,
                           report_out=args.report_out, pairs_out=args.pairs_out,
                           survival_out=args.survival_out, label=Path(args.out).stem, **options)
        outdir = Path(args.out).parent
        files = config.artifacts(outdir)
        _check_paths(files, {"config": args.config})
        list(analyse_group([config], simulate_run(config), outdir))
        return 0

    if args.command == "lyapunov":
        kind = ProcessKind.MEANFIELD if args.mode == "meanfield" else ProcessKind.ONEUNIT
        box = None
        if args.box_kr is not None or args.box_kn is not None:
            if args.box_kr is None or args.box_kn is None:
                raise UsageError("provide both --box-kr and --box-kn or neither")
            box = (args.box_kr, args.box_kn)
        with _argument_checks():
            report = scan_drift_condition(kind, params, epsilon=options["epsilon"], scan_box=box)
        io.write_json(args.out, report.to_dict(), params)
        return 0 if (report.passed or report.inconclusive) else 2

    raise UsageError(f"unknown command {args.command!r}")


def _run_preset(args: argparse.Namespace) -> int:
    overrides = {name: getattr(args, name) for name in ("seed", "t_end")
                 if getattr(args, name) is not None}
    runs = [replace(config, **overrides) for config in preset(args.name)]
    # Adjacent runs on the same path share one simulation, so only one
    # path is held at a time.
    for _key, group in groupby(runs, key=RunConfig.path_key):
        group = list(group)
        for written in analyse_group(group, simulate_run(*group),
                                     outdir=args.outdir):
            print(written)
    return 0


def _run_analyze(args: argparse.Namespace, a0: float | None, thr: float | None) -> int:
    _check_levels(a0, thr)
    if args.pairs_out and (a0 is None or thr is None):
        raise UsageError(f"--pairs-out writes nothing without {_NEEDS['pairs']}")
    _check_paths({"report": args.out, "pairs": args.pairs_out}, {"input": args.input})
    with _argument_checks():
        meta, columns = io.read_trajectory_csv(args.input)
    if "t" not in columns or "n" not in columns:
        raise UsageError(f"{args.input}: expected columns t and n")
    values = {key: _header_number(args.input, meta, key) for key in _PARAMS}
    try:
        params = ModelParams(**values)
    except ValueError as exc:
        raise UsageError(f"{args.input}: invalid parameter header: {exc}") from exc
    t = columns["t"]
    if len(t) == 0:
        raise UsageError(f"{args.input}: no data rows")
    for key in ("t", "r", "n"):
        if key in columns and not np.isfinite(columns[key]).all():
            raise UsageError(f"{args.input}: column {key} holds a value that is not finite")
    if np.any(t[1:] < t[:-1]):
        raise UsageError(f"{args.input}: times go backwards")
    # Jump CSVs record the horizon the path covers, and hold a step path;
    # ODE CSVs end at their last sample, and are read as linear between
    # samples.
    step = "t_end" in meta
    t_end = _header_number(args.input, meta, "t_end") if step else float(t[-1])
    if t_end < t[-1]:
        raise UsageError(f"{args.input}: t_end={t_end!r} precedes the last sample time")
    series = PathSeries(times=t, values=columns["n"], t_end=t_end, step=step)

    report: dict = {"input": str(args.input), "mode": meta.get("mode", "unknown")}
    stats, _amps, pairs = _analyse(a0, thr, None if a0 is None else detect_spikes(series, a0),
                                   None if thr is None else detect_plateaus(series, thr))
    report.update(stats)
    if pairs is not None and args.pairs_out:
        io.write_pairs_csv(args.pairs_out, pairs, params, {"a0": a0, "thr": thr})
    io.write_json(args.out, report, params)
    return 0


def _header_number(path: str, meta: dict, key: str) -> float:
    """The finite number a ``# key=value`` header line of ``path`` holds."""
    try:
        value = float(meta[key])
    except KeyError:
        raise UsageError(f"{path}: missing header {key!r}") from None
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{path}: header {key}={meta[key]!r} is not a finite number")
    return value


if __name__ == "__main__":
    sys.exit(main())
