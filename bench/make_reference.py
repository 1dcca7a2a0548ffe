"""Regenerate bench/reference.json from the code in this checkout.

    python3 bench/make_reference.py

For every scale, workload and reference seed it runs one untraced pass and
records each operation's exit status and artifact digests.  Run it only on a
commit whose outputs are known to be right: the benchmark treats any later
difference as a failed operation.  It refuses to write when an operation's
exit status differs from the one its workload declares.
"""

import json
import sys
import time

from run import BENCH, machine_stamp, op_outcomes, spawn_pass
from workloads import SCALES, WORKLOADS, build_ops, seeded

# Seed 1 is the CLI default and seed 2 the held-out seed; the rest of the
# range lets runs on other small seeds be checked against digests too.
REFERENCE_SEEDS = {"full": range(21), "tiny": (1, 2)}


def main() -> int:
    nproc = machine_stamp()["nproc"]
    refs: dict = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            seeds = REFERENCE_SEEDS[scale] if seeded(workload) else (1,)
            for seed in seeds:
                rec = spawn_pass(workload, scale, seed, False, time.monotonic() + 170, nproc)
                if "error" in rec:
                    print(f"{scale} {workload} seed {seed}: {rec['error']}", file=sys.stderr)
                    return 1
                declared = {op.name: op.expect_exit for op in build_ops(workload, scale, seed)}
                wrong = [op["name"] for op in rec["ops"] if op["exit"] != declared[op["name"]]]
                if wrong:
                    print(f"{scale} {workload} seed {seed}: unexpected exit status from "
                          f"{', '.join(wrong)}", file=sys.stderr)
                    return 1
                key = str(seed) if seeded(workload) else "any"
                refs.setdefault(scale, {}).setdefault(workload, {})[key] = op_outcomes(rec["ops"])
                print(f"{scale} {workload} {key}: {len(rec['ops'])} operations", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
