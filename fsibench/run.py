#!/usr/bin/env python3
"""Build the library in Release and run one fsibench workload.

Run from the repository root:

    python3 fsibench/run.py --workload table1_seq --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it
("record: {...}") holds the host, build and input record of the run.

The library is configured from its own sources into .bench_build/fsibench
with CMAKE_BUILD_TYPE=Release; the run is refused when the recorded compile
flags carry no optimisation level. Every workload runs in a fresh process,
and its checkpoints go to a temporary directory under .bench_build that is
removed afterwards.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "fsibench"
TMP_ROOT = ROOT / ".bench_build" / "tmp"
# The run must end within 180 s of its start (the first run may also build).
RUN_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 850.0


def die(message, code=1):
    print(f"fsibench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path.name} not found beside {BENCH_DIR.name}/", 2)
    return json.loads(path.read_text())


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        tail = Path(log).read_text().splitlines()[-40:]
        die("build step failed: " + " ".join(cmd) + "\n" + "\n".join(tail))


def build():
    """Configure (once) and build the fsibench target; returns the binary."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in \
            cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured from another source tree
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"] + generator, log,
                   deadline - time.monotonic())
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target", "fsibench",
                "-j", str(jobs())], log, deadline - time.monotonic())
    return BUILD_DIR / "fsibench"


def compile_flags():
    """Optimisation-relevant flags of the hot library kernels and fsibench.

    Read from the compile database the build used, so the record shows what
    compiled the code, not what was asked for.
    """
    db = json.loads((BUILD_DIR / "compile_commands.json").read_text())
    flags = {}
    for entry in db:
        source = Path(entry["file"]).as_posix()
        for key, suffix in (("library", "src/lbm/fused.cpp"),
                            ("benchmark", "fsibench/fsibench.cpp")):
            if source.endswith(suffix):
                args = entry.get("command", "").split() or entry["arguments"]
                flags[key] = " ".join(a for a in args
                                      if re.match(r"-(O|m|f|D|std=|g)", a))
    for key in ("library", "benchmark"):
        levels = re.findall(r"(?:^| )-O(\w*)", flags.get(key, ""))
        if not levels or levels[-1] == "0":
            die(f"refusing to report: the {key} was compiled without an "
                f"optimisation level (flags: {flags.get(key, '?')!r})", 3)
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps and one repetition of everything "
                             "(the self-test's mode)")
    args = parser.parse_args()

    # Workloads outside BENCHMARK.json (table1_seq, ib_dense_d2d, cube_job)
    # stay runnable; the fsibench binary rejects unknown names.
    bench = spec()
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("the library sources (CMakeLists.txt, src/) are not in "
            f"{ROOT}; run from a full checkout", 2)
    # Compiler and run temporaries stay inside the checkout.
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_ROOT)

    binary = build()
    flags = compile_flags()

    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--tmp-dir", str(tmp)]
            + (["--smoke"] if args.smoke else []),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S:.0f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]
               or result["metrics"][m["name"]]["unit"] != m["unit"]]
    if missing:
        die("metrics missing or with the wrong unit: " + ", ".join(missing))

    for line in lines[:-1]:
        print(line)
    record = dict(result["record"])
    record.update({"mode": "traced" if args.trace else "timed",
                   "compile_flags": flags,
                   "build_type": "Release",
                   "absent": result["absent"],
                   "failures": result["failures"],
                   "run_wall_s": round(time.monotonic() - started, 3)})
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }))


if __name__ == "__main__":
    main()
