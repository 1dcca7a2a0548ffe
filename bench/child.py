"""One pass of a workload in a fresh interpreter; started by run.py.

The working directory is the pass's empty artifact directory and
`spikesim` is importable from PYTHONPATH.  The pass imports the package,
builds its operations, then calls `spikesim.cli.main` for each operation in
turn (a closed loop with a single client).  It writes one JSON record to
--result: the moment set-up ended, the calibration times, the time and CPU
the operations took, the peak RSS, each operation's exit status and
artifact digests, and, when traced, the spans and per-layer metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def digest(path: Path) -> str:
    """sha256 of an artifact, blind to the tool version it records: CSVs
    without their `# version=` line, JSON without its top-level version key."""
    h = hashlib.sha256()
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        doc.pop("version", None)
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    else:
        with open(path, "rb") as fh:
            for line in fh:
                if not line.startswith(b"# version="):
                    h.update(line)
    return h.hexdigest()


# Operations are bracketed by calibration chunks at least this far apart.
CALIBRATE_EVERY_S = 0.5


def calibrate(numpy) -> float:
    """Seconds this process takes for a fixed mix of work that does not
    touch spikesim: scalar numpy draws with float arithmetic (like the
    engine), float reprs written to an in-memory file (like CSV output) and
    whole-array arithmetic (like the drift grid).

    A change to the program leaves this time alone, while a slowdown of the
    machine slows it together with the workload.
    """
    rng = numpy.random.default_rng(0)
    exponential, uniform = rng.standard_exponential, rng.random
    a = numpy.arange(300_000, dtype=numpy.float64)
    k = numpy.arange(300_000, dtype=numpy.int64)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(10_000):
        acc += exponential() * 0.5
        if uniform() < acc:
            acc -= 1.0
    buf = io.StringIO()
    for i in range(4_000):
        x = i * 0.1234567
        buf.write(f"{x!r},{x * 3.0!r},{i}\n")
    for _ in range(3):
        c = a * 0.5 + a * a
        numpy.where((k % 7 >= 3) & (c > 10.0), c, 0.0).sum()
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import spikesim.cli
    from workloads import build_ops

    ops = build_ops(args.workload, args.scale, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = spikesim.cli.main
    ready = time.monotonic()
    chunks = [calibrate(numpy)]
    record = {"ready": ready, "numpy": numpy.__version__, "calibration": chunks}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(record))
        return 0

    here = Path(".")
    seen: set[str] = set()
    results = []
    wall = cal_cpu = 0.0
    since_chunk = 0.0  # seconds of operations since the last calibration chunk
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            status = cli_main(list(op.argv))
            seconds = time.perf_counter() - t0
        wall += seconds
        since_chunk += seconds
        if since_chunk >= CALIBRATE_EVERY_S or i == len(ops) - 1:
            c0 = time.process_time()
            chunks.append(calibrate(numpy))
            cal_cpu += time.process_time() - c0
            since_chunk = 0.0
        made = sorted(p.name for p in here.iterdir() if p.name not in seen)
        seen.update(made)
        results.append({"name": op.name, "exit": status, "expect_exit": op.expect_exit,
                        "seconds": seconds, "artifacts": made, "stderr": err.getvalue()})
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime) - cal_cpu

    record.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=usage1.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        from tracing import layer_metrics

        record["layers"] = layer_metrics(tracer, wall)
        record["spans"] = tracer.spans
        record["simulate_calls"] = tracer.simulate_calls
    for res in results:
        res["artifacts"] = {name: digest(here / name) for name in res["artifacts"]}
    record["ops"] = results
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
