#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, both modes, smoke length.

    python3 fsibench/selftest.py

Runs run.py --smoke for each workload of BENCHMARK.json (and the three
kept outside it) with --trace 0 and --trace 1 and asserts that
  * the last line is the contract object (correct, attempted, failed,
    metrics) with no failed operation;
  * every end-to-end (trace 0) or per-layer (trace 1) metric is printed
    with its unit and a finite value, and in the human-readable table,
    either plainly or marked absent for a module the workload's step does
    not run;
  * the cube_channel input has 256 solid-free cubes of 1024.
Exit status 0 when all hold.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload, trace, wanted):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "fsibench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit code {proc.returncode}"]
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record: "))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        errors.append(f"operations failed: {result}")
    table = {line.split()[0]: line for line in lines[:-2]
             if line.startswith("  ")}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            errors.append(f"{m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append(f"{m['name']} value {got['value']!r}")
        row = table.get(m["name"], "")
        if m["unit"] not in row.split():
            errors.append(f"{m['name']} not printed with its unit")
        if (m["name"] in record["absent"]) != ("absent" in row):
            errors.append(f"{m['name']} absent marking disagrees")
    if workload == "cube_channel" and trace == 1:
        counts = (result["metrics"]["cube.solid_free_cubes"]["value"],
                  result["metrics"]["cube.cubes"]["value"])
        if counts != (256, 1024):
            errors.append(f"solid-free cubes {counts[0]} of {counts[1]}, "
                          "expected 256 of 1024")
    return errors


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    # The three workloads left out of BENCHMARK.json as unsteady on a shared
    # 4-vCPU host stay runnable, so they stay tested.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in ("table1_seq", "ib_dense_d2d", "cube_job")
                  if w not in workloads]
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errors = check(workload, trace, bench[key])
            print(f"{workload} --trace {trace}: "
                  + ("ok" if not errors else "; ".join(errors)))
            failed |= bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
