#!/usr/bin/env python3
"""Validate lbmib observability artifacts in CI.

Checks a Chrome trace-event JSON file (``--trace``) against the subset of
the spec Perfetto/chrome://tracing require of us:

  * top-level object with a non-empty ``traceEvents`` array,
  * every event is a complete ("X") or metadata ("M") event,
  * X events carry pid/tid/ts/dur/name/cat with sane values (dur >= 0),
  * per-tid ``ts`` is monotonically non-decreasing in file order (the
    tracer sorts its drain by (tid, start), so a violation means the
    exporter or ring reconstruction broke),
  * ``--expect`` span names all appear at least once.

Optionally validates a Prometheus text file (``--prometheus``) — every
non-comment line must parse as ``name[{labels}] value`` and every
``--expect-metrics`` name must be present — a metrics CSV (``--csv``)
for the ``metric,type,stat,value`` header, and a roofline JSON file
(``--roofline``, as written by ``lbmib_run --roofline-out``): machine
peaks must be positive, every kernel row must carry the analytic-model
fields with a sane bound verdict, the ``events`` map must say which
counter events the host granted, a row's counter field is ``null``
exactly where an event it is derived from was not granted (a number
everywhere else), and ``counters_available`` is true exactly when some
row carries a measured (numeric) counter field.

Exits non-zero with a description of the first failure. No third-party
imports: json/re/argparse only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?\s+"
    r"[-+]?(\d+\.?\d*([eE][-+]?\d+)?|Inf|NaN)$"
)


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str, expected: list[str]) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: 'traceEvents' must be a non-empty array")

    names: set[str] = set()
    last_ts: dict[int, float] = {}
    n_complete = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            fail(f"{path}: event {i} has ph={ph!r}, expected 'X' or 'M'")
        for field in ("pid", "tid", "ts", "dur", "name", "cat"):
            if field not in ev:
                fail(f"{path}: event {i} missing field {field!r}")
        if ev["dur"] < 0:
            fail(f"{path}: event {i} has negative dur {ev['dur']}")
        tid = ev["tid"]
        if tid in last_ts and ev["ts"] < last_ts[tid]:
            fail(
                f"{path}: event {i} ts {ev['ts']} goes backwards on "
                f"tid {tid} (previous {last_ts[tid]})"
            )
        last_ts[tid] = ev["ts"]
        names.add(ev["name"])
        n_complete += 1

    if n_complete == 0:
        fail(f"{path}: no complete ('X') events")
    for want in expected:
        if want not in names:
            fail(f"{path}: expected span name {want!r} not found "
                 f"(have: {sorted(names)})")
    print(
        f"check_trace: {path}: OK — {n_complete} complete events, "
        f"{len(last_ts)} thread(s), {len(names)} distinct span names"
    )


def check_prometheus(path: str, expected: list[str]) -> None:
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if not PROM_LINE.match(line):
                fail(f"{path}:{lineno}: not a valid Prometheus sample "
                     f"line: {line!r}")
            seen.add(line.split("{")[0].split()[0])
    if not seen:
        fail(f"{path}: no samples")
    for want in expected:
        # A histogram appears as <name>_bucket/_sum/_count samples.
        if want not in seen and f"{want}_count" not in seen:
            fail(f"{path}: expected metric {want!r} not found "
                 f"(have: {sorted(seen)})")
    print(f"check_trace: {path}: OK — {len(seen)} metric series")


def check_csv(path: str) -> None:
    import csv as csvmod

    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csvmod.reader(f))
    if not rows or rows[0] != ["metric", "type", "stat", "value"]:
        fail(f"{path}: first line must be 'metric,type,stat,value'")
    if len(rows) < 2:
        fail(f"{path}: no data rows")
    for lineno, row in enumerate(rows[1:], 2):
        # Metric names with label sets are RFC 4180-quoted by the
        # exporter, so a parsed row is always exactly 4 fields.
        if row and len(row) != 4:
            fail(f"{path}:{lineno}: expected 4 fields, got {row!r}")
        float(row[3])  # value must be numeric
    print(f"check_trace: {path}: OK — {len(rows) - 1} CSV rows")


# Each roofline counter column and the perf events it is derived from
# (perfmodel/roofline.cpp writes null unless all of them were granted).
COUNTER_COLUMNS = {
    "ipc": ("cycles", "instructions"),
    "llc_miss_rate": ("llc_references", "llc_misses"),
    "llc_miss_per_unit": ("llc_misses",),
    "measured_gbps": ("llc_misses",),
    "stalled_backend_frac": ("stalled_backend", "cycles"),
}


def check_roofline(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    peaks = doc.get("peaks")
    if not isinstance(peaks, dict):
        fail(f"{path}: missing 'peaks' object")
    for field in ("gbps", "gflops", "balance_flop_per_byte"):
        v = peaks.get(field)
        if not isinstance(v, (int, float)) or v <= 0:
            fail(f"{path}: peaks.{field} must be a positive number, "
                 f"got {v!r}")
    if not isinstance(peaks.get("threads"), int) or peaks["threads"] < 1:
        fail(f"{path}: peaks.threads must be a positive integer")
    if not isinstance(doc.get("counters_available"), bool):
        fail(f"{path}: 'counters_available' must be a boolean")
    events = doc.get("events")
    if not isinstance(events, dict) or not all(
            isinstance(v, bool) for v in events.values()):
        fail(f"{path}: 'events' must be an object of event -> boolean")

    kernels = doc.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        fail(f"{path}: 'kernels' must be a non-empty array")
    n_with_counters = 0
    n_measured = 0
    for i, row in enumerate(kernels):
        for field in ("kernel", "unit", "bound"):
            if not isinstance(row.get(field), str):
                fail(f"{path}: kernel {i} field {field!r} must be a "
                     f"string, got {row.get(field)!r}")
        if row["bound"] not in ("bandwidth", "compute"):
            fail(f"{path}: kernel {i} ({row['kernel']}) has bound="
                 f"{row['bound']!r}, expected bandwidth|compute")
        if row["unit"] not in ("node", "point"):
            fail(f"{path}: kernel {i} ({row['kernel']}) has unit="
                 f"{row['unit']!r}, expected node|point")
        for field in ("seconds", "ai_flop_per_byte", "model_gbytes",
                      "achieved_gbps", "achieved_gflops",
                      "roof_fraction"):
            v = row.get(field)
            if not isinstance(v, (int, float)) or v < 0:
                fail(f"{path}: kernel {i} ({row['kernel']}) field "
                     f"{field!r} must be a non-negative number, "
                     f"got {v!r}")
        present = [f for f in COUNTER_COLUMNS if f in row]
        if present:
            # Counter fields are all-or-nothing per row.
            missing = [f for f in COUNTER_COLUMNS if f not in row]
            if missing:
                fail(f"{path}: kernel {i} ({row['kernel']}) has partial "
                     f"counter fields: missing {missing}")
            for field, needs in COUNTER_COLUMNS.items():
                granted = all(events.get(e, False) for e in needs)
                v = row[field]
                if granted and not (isinstance(v, (int, float))
                                    and not isinstance(v, bool)):
                    fail(f"{path}: kernel {i} ({row['kernel']}) field "
                         f"{field!r} must be numeric: its events "
                         f"{list(needs)} were granted")
                if not granted and v is not None:
                    fail(f"{path}: kernel {i} ({row['kernel']}) field "
                         f"{field!r} must be null: events {list(needs)} "
                         f"were not all granted, got {v!r}")
                n_measured += granted
            n_with_counters += 1
    if doc["counters_available"] != (n_measured > 0):
        fail(f"{path}: counters_available is "
             f"{str(doc['counters_available']).lower()} but "
             f"{n_measured} counter fields are measured")
    print(
        f"check_trace: {path}: OK — {len(kernels)} roofline rows, "
        f"{n_with_counters} with counters, peak {peaks['gbps']} GB/s / "
        f"{peaks['gflops']} GFLOP/s"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace-event JSON to validate")
    ap.add_argument("--prometheus", help="Prometheus text file to validate")
    ap.add_argument("--csv", help="metrics CSV file to validate")
    ap.add_argument("--roofline",
                    help="roofline JSON (lbmib_run --roofline-out) to "
                    "validate")
    ap.add_argument(
        "--expect",
        default="",
        help="comma-separated span names that must appear in the trace",
    )
    ap.add_argument(
        "--expect-metrics",
        default="",
        help="comma-separated metric names that must appear in the "
        "Prometheus file",
    )
    args = ap.parse_args()
    if not (args.trace or args.prometheus or args.csv or args.roofline):
        ap.error("nothing to check: pass --trace, --prometheus, --csv, "
                 "or --roofline")

    if args.trace:
        check_trace(args.trace,
                    [s for s in args.expect.split(",") if s])
    if args.prometheus:
        check_prometheus(args.prometheus,
                         [s for s in args.expect_metrics.split(",") if s])
    if args.csv:
        check_csv(args.csv)
    if args.roofline:
        check_roofline(args.roofline)


if __name__ == "__main__":
    main()
