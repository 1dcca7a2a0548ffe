"""Smoke test of the benchmark harness on the tiny scale.

Checks that a run prints every metric BENCHMARK.json names, with its unit,
that its artifacts match the committed tiny-scale digests, and that in every
traced pass the layer self times plus cli.self_s add up to the traced wall
time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("spike_stats", "sample_paths", "drift_scan")
# io has no self_s of its own: its spans split into write and read time.
SELF_TIMES = ("cli.self_s", "jump.self_s", "ode.self_s", "spikes.self_s",
              "io.write_s", "io.read_s", "lyapunov.self_s", "model.self_s")


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    record = next(line.split(": ", 1)[1] for line in lines if line.startswith("# record: "))
    return json.loads(lines[-1]), json.loads((ROOT / record).read_text())


def assert_metrics(result: dict, names: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_adds_up(workload):
    result, record = run_bench(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    assert record["reference"], "tiny seed 1 should be checked against committed digests"
    traced = [p for p in record["passes"] if p["traced"]]
    assert traced
    for p in traced:
        layers = p["layers"]
        assert all(layers[name] >= -1e-9 for name in SELF_TIMES)
        total = sum(layers[name] for name in SELF_TIMES)
        assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)


def test_untraced_run_reports_end_to_end():
    result, record = run_bench("spike_stats", 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["reference"]
