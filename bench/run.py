"""spikesim benchmark: closed-loop figure-pipeline workloads, end to end and
layer by layer.

    python3 bench/run.py --workload spike_stats --seed 1 --seconds 36 --trace 0
    python3 bench/run.py                   # every workload, seeds 1 and 2, traced too

A run repeats passes of one workload until --seconds is spent (at least
three).  Each pass is a fresh interpreter (bench/child.py) that calls
`spikesim.cli.main` for each operation in turn, so passes run one at a time
and never share a process.  Every artifact is checked against the committed
digests in bench/reference.json for that seed, or, for a seed without a
reference, against the first pass of the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
passes); --trace 1 alternates untraced and traced passes and reports the
per-layer metrics (medians over traced passes).  The last line of standard
output is one JSON object; the lines above it give every metric with its
unit, the machine stamp and each pass.  A full record, spans included, goes
to bench/out/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
from child import calibrate
from workloads import SCALES, WORKLOADS, build_ops, seeded

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
SETUP_PROBES = 5  # extra set-up-only children per untraced run
RUN_LIMIT_S = 170.0  # a run never outlives this, whatever --seconds says
DEFAULT_SEEDS = (1, 2)  # the CLI's default seed and the held-out seed
# Seconds child.calibrate takes at the reference speed of the machine (its
# fast state here): wall_s, cpu_s and setup_s are reported at that speed.
CALIBRATION_REF_S = 0.028
LIMITS = ("shared 2-core machine; no CPU pinning; no hardware counters; "
          "wall and CPU times from the OS clock and getrusage only")


def loadavg_1m() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


def machine_stamp() -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo
              if line.startswith("model name")]
    return {
        "python": platform.python_version(),
        "nproc": sum(1 for line in cpuinfo if line.startswith("processor")),
        "cpu_model": models[0] if models else "unknown",
        "limits": LIMITS,
    }


def spawn_pass(workload: str, scale: str, seed: int, traced: bool, deadline: float,
               nproc: int, setup_only: bool = False) -> dict:
    """Run bench/child.py once in a fresh interpreter and return its record."""
    work = OUT / f"work-{os.getpid()}"
    result = OUT / f"pass-{os.getpid()}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--scale", scale, "--seed", str(seed), "--trace", str(int(traced)),
           "--result", str(result)] + (["--setup-only"] if setup_only else [])
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    load_before = loadavg_1m()
    parent_chunk = calibrate(numpy)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lifetime = time.monotonic() - spawned
    load_after = loadavg_1m()
    record = {"traced": traced, "lifetime_s": lifetime, "load1": [load_before, load_after],
              "noisy": max(load_before, load_after) > nproc}
    if proc.returncode != 0 or not result.exists():
        record["error"] = f"child exited with status {proc.returncode}"
    else:
        child = json.loads(result.read_text())
        record["setup_raw_s"] = child.pop("ready") - spawned
        record.update(child)
        chunks = record["calibration"]
        chunks.insert(0, parent_chunk)
        # Scale to the reference speed: set-up by the chunks on either side
        # of it, the operations by the mean chunk of the whole pass.
        record["setup_s"] = record["setup_raw_s"] * speed(chunks[:2])
        if "wall_s" in child:
            scale = speed(chunks)
            record["wall_raw_s"], record["cpu_raw_s"] = child["wall_s"], child["cpu_s"]
            record["wall_s"], record["cpu_s"] = child["wall_s"] * scale, child["cpu_s"] * scale
    shutil.rmtree(work, ignore_errors=True)
    result.unlink(missing_ok=True)
    return record


def speed(chunks: list[float]) -> float:
    """Reference calibration time over the mean measured one: below 1 when
    the machine ran slower than its reference speed."""
    return CALIBRATION_REF_S / statistics.mean(chunks)


def load_reference(workload: str, scale: str, seed: int) -> dict | None:
    refs = json.loads((BENCH / "reference.json").read_text())
    key = str(seed) if seeded(workload) else "any"
    return refs.get(scale, {}).get(workload, {}).get(key)


def op_outcomes(ops: list[dict]) -> dict:
    return {op["name"]: {"exit": op["exit"], "artifacts": op["artifacts"]} for op in ops}


def check_ops(ops: list[dict], expected: dict | None) -> dict[str, str]:
    """Failed operations by name: unexpected exit status, no artifact, or an
    artifact set or digest that differs from ``expected``."""
    failed = {}
    for op in ops:
        want = expected.get(op["name"]) if expected else None
        want_exit = want["exit"] if want else op["expect_exit"]
        if op["exit"] != want_exit:
            failed[op["name"]] = (f"exit {op['exit']}, expected {want_exit}: "
                                  f"{op['stderr'].strip()[:200]}")
        elif not op["artifacts"]:
            failed[op["name"]] = "wrote no artifact"
        elif expected is not None and op["artifacts"] != (want or {}).get("artifacts"):
            failed[op["name"]] = "artifacts differ from the reference"
    for name in set(expected or {}) - {op["name"] for op in ops}:
        failed[name] = "not run"
    return failed


def run_workload(workload: str, scale: str, seed: int, seconds: float, trace: bool,
                 stamp: dict) -> dict:
    """Repeat passes of one workload for ``seconds`` and summarise them."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    nproc = stamp["nproc"]
    n_ops = len(build_ops(workload, scale, seed))
    reference = load_reference(workload, scale, seed)
    expected = reference
    # Fill the bytecode caches first; users pay that once, not per run.
    warmup = spawn_pass(workload, scale, seed, False, deadline, nproc, setup_only=True)
    passes, problems, failed = [], [], 0
    if "error" in warmup:
        problems.append(f"warm-up: {warmup['error']}")
    while not problems:
        traced = trace and len(passes) % 2 == 1
        rec = spawn_pass(workload, scale, seed, traced, deadline, nproc)
        passes.append(rec)
        if "error" in rec:
            problems.append(f"pass {len(passes)}: {rec['error']}")
            failed += n_ops
            break
        found = check_ops(rec["ops"], expected)
        failed += len(found)
        problems += [f"pass {len(passes)}: {name}: {msg}" for name, msg in found.items()]
        if expected is None and not found:
            expected = op_outcomes(rec["ops"])
        elapsed = time.monotonic() - started
        estimate = statistics.median(p["lifetime_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + estimate > seconds:
            break
        if elapsed + estimate > RUN_LIMIT_S - 10:
            break
    probes = []
    if not trace and not problems:
        probes = [spawn_pass(workload, scale, seed, False, deadline, nproc, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        problems += [f"set-up probe: {p['error']}" for p in probes if "error" in p]
    return {
        "workload": workload, "scale": scale, "seed": seed, "trace": trace,
        "seconds": seconds, "stamp": stamp, "reference": reference is not None,
        "warmup": warmup, "passes": passes, "setup_probes": probes,
        "attempted": n_ops * len(passes), "failed": failed,
        "problems": problems,
    }


def summarise(run: dict, spec: dict) -> dict:
    """The metrics of the result line: end-to-end untraced, per-layer traced."""
    good = [p for p in run["passes"] if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    if not run["trace"]:
        setups = [p["setup_s"] for p in plain + run["setup_probes"] if "error" not in p]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
        }
        names = spec["end_to_end"]
    else:
        traced = [p for p in good if p["traced"]]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0)
        names = spec["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def print_run(run: dict, metrics: dict) -> None:
    stamp = run["stamp"]
    good = [p for p in run["passes"] if "error" not in p]
    numpy_version = good[0]["numpy"] if good else "unknown"
    print(f"# workload={run['workload']} scale={run['scale']} seed={run['seed']} "
          f"trace={int(run['trace'])} seconds={run['seconds']:g} "
          f"reference={'committed' if run['reference'] else 'first pass'}")
    print(f"# python={stamp['python']} numpy={numpy_version} nproc={stamp['nproc']} "
          f"cpu={stamp['cpu_model']!r}")
    print(f"# limits: {stamp['limits']}")
    for i, p in enumerate(run["passes"], 1):
        tag = "traced" if p["traced"] else "plain"
        load = f"load1 {p['load1'][0]:.2f}->{p['load1'][1]:.2f}{' NOISY' if p['noisy'] else ''}"
        if "error" in p:
            print(f"# pass {i} {tag}: {p['error']} ({load})")
        else:
            print(f"# pass {i} {tag}: wall {p['wall_s']:.4f} s (raw {p['wall_raw_s']:.4f}) "
                  f"cpu {p['cpu_s']:.4f} s (raw {p['cpu_raw_s']:.4f}) "
                  f"setup {p['setup_s']:.4f} s (raw {p['setup_raw_s']:.4f}) "
                  f"rss {p['peak_rss_mb']:.1f} MB "
                  f"speed {speed(p['calibration']):.3f} ({load})")
    noisy = sum(p["noisy"] for p in run["passes"] + run["setup_probes"])
    print(f"# noisy children (load1 > nproc), kept in the medians: {noisy}")
    n_plain = sum(1 for p in good if not p["traced"])
    n_traced = len(good) - n_plain
    for name, m in metrics.items():
        if name == "setup_s":
            n = n_plain + sum("error" not in p for p in run["setup_probes"])
            note = f"median of {n} set-ups"
        elif run["trace"] and name != "trace.overhead_frac":
            note = f"median of {n_traced} traced passes"
        else:
            note = f"median of {n_plain} passes"
        print(f"{name:<28} {m['value']:>16.6g} {m['unit']:<10} ({note})")
    plain = [p for p in good if not p["traced"]]
    if metrics and not run["trace"]:
        setups = plain + [p for p in run["setup_probes"] if "error" not in p]
        for name, values in (("wall_raw_s", [p["wall_raw_s"] for p in plain]),
                             ("cpu_raw_s", [p["cpu_raw_s"] for p in plain]),
                             ("setup_raw_s", [p["setup_raw_s"] for p in setups])):
            print(f"{name:<28} {statistics.median(values):>16.6g} {'s':<10} "
                  f"(median, not scaled to the reference speed)")
    frac = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"{'ops_failed_frac':<28} {frac:>16.6g} {'ratio':<10} "
          f"({run['failed']} of {run['attempted']} operations)")
    if run["trace"] and metrics:
        wall = metrics["trace.wall_s"]["value"]
        split = {layer: metrics[f"{layer}.self_s"]["value"]
                 for layer in ("cli", "jump", "ode", "spikes", "lyapunov", "model")}
        split["io"] = metrics["io.write_s"]["value"] + metrics["io.read_s"]["value"]
        print("# layer split of traced wall: " + "  ".join(
            f"{layer} {100 * s / wall:.1f}%" for layer, s in split.items()))
    for msg in run["problems"][:10]:
        print(f"# FAILED {msg}", file=sys.stderr)


def write_record(run: dict, metrics: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{run['workload']}-{run['scale']}-seed{run['seed']}"
                      f"-trace{int(run['trace'])}.json")
    path.write_text(json.dumps(dict(run, metrics=metrics), indent=1))
    return path


def result_line(runs: list[dict], metrics: dict) -> str:
    return json.dumps({
        "correct": all(not r["problems"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    })


def measure(workload, scale, seed, seconds, trace, stamp, spec) -> tuple[dict, dict]:
    run = run_workload(workload, scale, seed, seconds, trace, stamp)
    has_plain = any("error" not in p and not p["traced"] for p in run["passes"])
    has_traced = any("error" not in p and p["traced"] for p in run["passes"])
    metrics = summarise(run, spec) if has_plain and (has_traced or not trace) else {}
    print_run(run, metrics)
    print(f"# record: {write_record(run, metrics).relative_to(ROOT)}")
    return run, metrics


BASELINE_ROWS = (  # (per-layer metric, workload it is read from)
    ("jump.events_per_s.oneunit", "spike_stats"),
    ("jump.events_per_s.global", "sample_paths"),
    ("jump.events_per_s.meanfield", "sample_paths"),
    ("jump.rss_bytes_per_event", "spike_stats"),
    ("ode.steps_per_s", "sample_paths"),
    ("spikes.ns_per_point", "spike_stats"),
    ("io.write_rows_per_s", "sample_paths"),
    ("io.read_rows_per_s", "sample_paths"),
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, action="append",
                    help="repeatable with --workload all (default: 1 and 2)")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="ignored with --workload all, which runs both")
    ap.add_argument("--scale", default="full", choices=SCALES)
    args = ap.parse_args(argv)

    if not (SRC / "spikesim" / "__init__.py").is_file():
        print(f"bench: no spikesim package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    stamp = machine_stamp()

    if args.workload != "all":
        if args.seed and len(args.seed) > 1:
            ap.error("a single workload takes one --seed")
        seed = args.seed[0] if args.seed else DEFAULT_SEEDS[0]
        run, metrics = measure(args.workload, args.scale, seed, seconds,
                               bool(args.trace), stamp, spec)
        if not metrics:
            return 1
        print(result_line([run], metrics))
        return 0

    seeds = args.seed or list(DEFAULT_SEEDS)
    runs, combined, traced = [], {}, {}
    for workload in WORKLOADS:
        for seed in seeds:
            run, metrics = measure(workload, args.scale, seed, seconds, False, stamp, spec)
            runs.append(run)
            combined.update({f"{workload}/seed{seed}/{k}": v for k, v in metrics.items()})
        run, metrics = measure(workload, args.scale, seeds[0], seconds, True, stamp, spec)
        runs.append(run)
        traced[workload] = metrics
        combined.update({f"{workload}/seed{seeds[0]}/{k}": v for k, v in metrics.items()})
    print("# baseline rows (traced, seed %d)" % seeds[0])
    for name, workload in BASELINE_ROWS:
        m = traced[workload].get(name)
        if m:
            print(f"{name:<28} {m['value']:>16.6g} {m['unit']:<10} ({workload})")
    print(result_line(runs, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
