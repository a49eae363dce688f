#!/usr/bin/env python3
"""Static lint: every blocking wait / spin loop must stay visible to the
correctness tooling.

The model checker (src/parallel/modelcheck.hpp), the race detector and
the watchdog can only reason about blocking constructs they can see. A
raw condition-variable wait or atomic spin loop with no `cancel_point`,
no `mc::` schedule point and no `inst::`/`race::` instrumentation within
reach is invisible to all of them: it can deadlock without the watchdog
attributing it, and the model checker cannot preempt or replay it. This
lint scans src/parallel/ and the four solver translation units for such
constructs and fails CI when one lacks a nearby visibility marker — the
mechanism by which NEW primitives are forced to join the checked world
rather than silently bypassing it.

What counts as a blocking construct:
  * a condition-variable style wait:        .wait( / .wait_for( / .wait_until(
  * an atomic spin loop:                    while (... .load( ...)

What counts as a visibility marker (within WINDOW lines either side):
  * cancel_point / cancelled(   - cooperative cancellation seam (PR 6)
  * mc:: / LBMIB_MC_CHECK       - model-checker schedule point (PR 7)
  * inst:: / LBMIB_INSTRUMENT   - kernel-event stream (PR 2/4)
  * race::                      - happens-before edge (PR 4)

Delegating blocking calls (barrier.arrive_and_wait(), channel.recv(),
...) are deliberately NOT flagged: the primitive they call into carries
the hooks, which is the whole point of funnelling blocking through the
library's own types.

Suppressions: append `// sync-lint: ok <reason>` on (or one line above)
the construct. Reasons are mandatory and reviewed like any comment.

Exit status: 0 clean, 1 violations, 2 usage/self-test failure.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# src/parallel plus the four solver translation units named in DESIGN.md.
TARGETS = [
    "src/parallel",
    "src/core/sequential_solver.cpp",
    "src/core/openmp_solver.cpp",
    "src/core/cube_solver.cpp",
    "src/core/distributed2d_solver.cpp",
]

# The model-checker engine IS the visibility layer: its controller
# handoff uses a raw condvar by construction (every other wait in the
# library funnels INTO these hooks). Linting it against itself would be
# circular.
EXCLUDE = {"src/parallel/modelcheck.hpp", "src/parallel/modelcheck.cpp"}

WINDOW = 12  # lines of context searched either side of a construct

BLOCKING_WAIT = re.compile(r"[\w\)\]]\s*(?:\.|->)\s*wait(?:_for|_until)?\s*\(")
SPIN_LOOP = re.compile(r"\bwhile\s*\(.*\.load\s*\(")
SUPPRESS = re.compile(r"//\s*sync-lint:\s*ok\b")
MARKERS = re.compile(
    r"cancel_point|cancelled\s*\(|mc::|LBMIB_MC_CHECK|inst::"
    r"|LBMIB_INSTRUMENT|race::"
)
LINE_COMMENT = re.compile(r"//.*$")


def strip_comment(line: str) -> str:
    """Drop a trailing // comment so prose never matches code patterns."""
    return LINE_COMMENT.sub("", line)


def find_violations(lines: list[str], rel: str) -> list[str]:
    violations = []
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        if not (BLOCKING_WAIT.search(code) or SPIN_LOOP.search(code)):
            continue
        # mc::wait_until IS the hook, not a raw wait.
        if "mc::wait_until" in code:
            continue
        if SUPPRESS.search(raw) or (i > 0 and SUPPRESS.search(lines[i - 1])):
            continue
        lo = max(0, i - WINDOW)
        hi = min(len(lines), i + WINDOW + 1)
        window = "".join(lines[lo:hi])
        if MARKERS.search(window):
            continue
        violations.append(
            f"{rel}:{i + 1}: blocking wait or spin loop with no "
            f"cancel_point / mc:: / inst:: marker within {WINDOW} lines:\n"
            f"    {raw.rstrip()}"
        )
    return violations


def collect_files(repo: pathlib.Path) -> list[pathlib.Path]:
    files = []
    for target in TARGETS:
        path = repo / target
        if path.is_dir():
            files.extend(sorted(path.glob("*.hpp")))
            files.extend(sorted(path.glob("*.cpp")))
        elif path.is_file():
            files.append(path)
        else:
            print(f"check_sync_points: missing target {target}",
                  file=sys.stderr)
            sys.exit(2)
    return [f for f in files
            if f.relative_to(repo).as_posix() not in EXCLUDE]


def run(repo: pathlib.Path) -> int:
    violations = []
    scanned = 0
    for path in collect_files(repo):
        rel = path.relative_to(repo).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        violations.extend(find_violations(lines, rel))
        scanned += 1
    if violations:
        print(f"check_sync_points: {len(violations)} violation(s) in "
              f"{scanned} files:\n", file=sys.stderr)
        for v in violations:
            print(v, file=sys.stderr)
        print("\nEvery blocking wait must be reachable by the cancel/"
              "model-check/instrumentation tooling; add the seam or a "
              "'// sync-lint: ok <reason>' suppression.", file=sys.stderr)
        return 1
    print(f"check_sync_points: OK ({scanned} files clean)")
    return 0


BAD_SNIPPET = """\
void naked_spin(std::atomic<int>& flag) {
  while (flag.load(std::memory_order_acquire) == 0) {
  }
}
"""

GOOD_SNIPPET = """\
void visible_spin(std::atomic<int>& flag) {
  while (flag.load(std::memory_order_acquire) == 0) {
    cancel_point("visible_spin");
  }
}
"""

SUPPRESSED_SNIPPET = """\
void leaf_wait(std::condition_variable& cv, Lock& lock) {
  cv.wait(lock);  // sync-lint: ok leaf wrapper, callers carry the seam
}
"""

BAD_WAIT_SNIPPET = """\
void naked_wait(std::condition_variable& cv, Lock& lock) {
  cv.wait(lock);
}
"""


def self_test() -> int:
    cases = [
        ("bad", BAD_SNIPPET, 1),
        ("bad-wait", BAD_WAIT_SNIPPET, 1),
        ("good", GOOD_SNIPPET, 0),
        ("suppressed", SUPPRESSED_SNIPPET, 0),
    ]
    for name, snippet, expected in cases:
        got = len(find_violations(snippet.splitlines(keepends=True), name))
        if (got > 0) != (expected > 0):
            print(f"self-test '{name}': expected {expected} violations, "
                  f"got {got}", file=sys.stderr)
            return 2
    print("check_sync_points: self-test OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=pathlib.Path, default=REPO,
                        help="repository root (default: script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the scanner on embedded snippets")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run(args.repo.resolve())


if __name__ == "__main__":
    sys.exit(main())
