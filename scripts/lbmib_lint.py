#!/usr/bin/env python3
"""Portable engine for the six lbmib-* protocol checks.

The authoritative implementation is the clang-tidy plugin in
tools/lint/ (lbmib-tidy, DESIGN.md §17); this module re-implements the
same checks — same names, same message text, same NOLINT handling — as
a dependency-free regex engine so the protocols still gate where the
LLVM/Clang dev packages are absent. scripts/lint.sh and the
`lint`-labeled ctest fixtures select whichever engine is available, and
the fixtures assert identical diagnostic substrings from both, which is
what keeps the two engines honest about each other.

Checks (rationale lives next to each implementation):
  lbmib-raw-sync             raw std sync outside src/parallel/
  lbmib-missing-cancel-point unbounded loops with no cancel/heartbeat
  lbmib-df-parity            df/df_new parity-swap protocol (PR 3)
  lbmib-lock-discipline      RAII guards; no blocking under SpinLock
  lbmib-nondeterminism       replayability of kernels and schedulers
  lbmib-raw-timing           solver bodies time phases only via KernelScope

Suppressions: standard clang-tidy syntax — `// NOLINT(lbmib-raw-sync)`
on the flagged line or `// NOLINTNEXTLINE(...)` on the line above, with
`*` globs honored. A reason on the same line is mandatory by repo
convention.

Output: clang-tidy-style `path:line:col: warning: message [check]`.
Exit status: 0 clean, 1 diagnostics emitted, 2 usage/self-test failure.
"""

from __future__ import annotations

import argparse
import fnmatch
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------
# shared text machinery


def strip_code(lines: list[str]) -> list[str]:
    """Blank out comments and string/char literals, preserving line
    structure, so prose and log text never match code patterns."""
    out: list[str] = []
    in_block = False
    for line in lines:
        buf: list[str] = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    buf.append(" " * (n - i))
                    i = n
                else:
                    buf.append(" " * (end + 2 - i))
                    i = end + 2
                    in_block = False
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                buf.append(" " * (n - i))
                i = n
            elif ch == "/" and nxt == "*":
                in_block = True
                buf.append("  ")
                i += 2
            elif ch in "\"'":
                quote = ch
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        buf.append("  ")
                        i += 2
                        continue
                    if line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
            else:
                buf.append(ch)
                i += 1
        out.append("".join(buf))
    return out


NOLINT = re.compile(r"NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")


def build_suppressions(lines: list[str]) -> list[tuple[bool, list[str]]]:
    """Per-line (has_marker_for_this_line, check-glob list). Empty glob
    list means 'suppress everything' (bare NOLINT)."""
    per_line: dict[int, list[str] | None] = {}
    for idx, line in enumerate(lines):
        for m in NOLINT.finditer(line):
            target = idx + 1 if m.group(1) else idx
            globs = (
                [g.strip() for g in m.group(2).split(",") if g.strip()]
                if m.group(2) is not None
                else None
            )
            if target in per_line and per_line[target] is not None:
                if globs is None:
                    per_line[target] = None
                else:
                    per_line[target].extend(globs)  # type: ignore[union-attr]
            elif target not in per_line:
                per_line[target] = globs
    result: list[tuple[bool, list[str]]] = []
    for idx in range(len(lines) + 2):
        entry = per_line.get(idx, False)
        if entry is False:
            result.append((False, []))
        elif entry is None:
            result.append((True, []))
        else:
            result.append((True, entry))
    return result


class FileCtx:
    def __init__(self, path: pathlib.Path, rel: str):
        self.path = path
        self.rel = rel
        text = path.read_text(errors="replace")
        self.lines = text.splitlines()
        self.stripped = strip_code(self.lines)
        self.suppress = build_suppressions(self.lines)

    def suppressed(self, line_no: int, check: str) -> bool:
        # line_no is 1-based.
        if line_no - 1 >= len(self.suppress):
            return False
        has, globs = self.suppress[line_no - 1]
        if not has:
            return False
        if not globs:
            return True
        return any(fnmatch.fnmatchcase(check, g) for g in globs)


class Diag:
    def __init__(self, rel: str, line: int, col: int, check: str, msg: str):
        self.rel, self.line, self.col = rel, line, col
        self.check, self.msg = check, msg

    def __str__(self) -> str:
        return (
            f"{self.rel}:{self.line}:{self.col}: warning: "
            f"{self.msg} [{self.check}]"
        )


def find_body_span(ctx: FileCtx, line_idx: int, col: int) -> tuple[int, int]:
    """(first, last) 0-based line range of the brace-delimited body
    starting at/after (line_idx, col). Falls back to the next line when
    no opening brace is found nearby (braceless single statement)."""
    depth = 0
    opened = False
    for li in range(line_idx, min(line_idx + 4, len(ctx.stripped))):
        text = ctx.stripped[li]
        start = col if li == line_idx else 0
        for ci in range(start, len(text)):
            ch = text[ci]
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth == 0:
                    return (line_idx, li)
        if opened:
            # Scan on until the brace closes.
            for lj in range(li + 1, len(ctx.stripped)):
                for ch in ctx.stripped[lj]:
                    if ch == "{":
                        depth += 1
                    elif ch == "}":
                        depth -= 1
                        if depth == 0:
                            return (line_idx, lj)
            return (line_idx, len(ctx.stripped) - 1)
    return (line_idx, min(line_idx + 1, len(ctx.stripped) - 1))


# --------------------------------------------------------------------
# check: lbmib-raw-sync

RAW_SYNC_ALLOWED = re.compile(r"(^|/)src/parallel/")

RAW_SYNC_PATTERNS = [
    (
        re.compile(
            r"std::(?:recursive_|timed_|shared_|recursive_timed_"
            r"|shared_timed_)?mutex\b"
        ),
        "mutex",
        "use lbmib::Mutex with MutexLock, or lbmib::SpinLock with "
        "SpinLockGuard (src/parallel/mutex.hpp, spinlock.hpp)",
    ),
    (
        re.compile(r"std::condition_variable(?:_any)?\b"),
        "condition_variable",
        "route the wait through lbmib::Mutex::wait/wait_for "
        "(src/parallel/mutex.hpp) so cancellation and the model checker "
        "see the blocking edge",
    ),
    (
        re.compile(r"std::j?thread\b(?!::)"),
        "thread",
        "use lbmib::ThreadTeam (src/parallel/thread_team.hpp), which "
        "enrolls workers in heartbeats, cancellation and the race "
        "detector",
    ),
    (
        re.compile(r"\batomic_(?:thread|signal)_fence\b"),
        "fence",
        "publish through a release/acquire pair on a named std::atomic "
        "instead: the detectors model objects, not fences",
    ),
    (
        re.compile(
            r"\bpthread_(?:create|mutex_init|mutex_lock|mutex_unlock"
            r"|cond_init|cond_wait|cond_signal|barrier_init"
            r"|barrier_wait)\b"
        ),
        "pthread",
        "use the instrumented primitives in src/parallel/",
    ),
]


def check_raw_sync(ctx: FileCtx) -> list[Diag]:
    if RAW_SYNC_ALLOWED.search(ctx.rel):
        return []
    out = []
    for idx, text in enumerate(ctx.stripped):
        for pat, _kind, hint in RAW_SYNC_PATTERNS:
            for m in pat.finditer(text):
                out.append(
                    Diag(
                        ctx.rel,
                        idx + 1,
                        m.start() + 1,
                        "lbmib-raw-sync",
                        f"raw '{m.group(0)}' outside src/parallel/ is "
                        "invisible to the race detector, model checker "
                        f"and cancellation layer; {hint}",
                    )
                )
    return out


# --------------------------------------------------------------------
# check: lbmib-missing-cancel-point

UNBOUNDED_LOOP = re.compile(
    r"(?:^|[^\w])(while\s*\(\s*(?:true|1)\s*\)|for\s*\(\s*;\s*;\s*\))"
)
CANCEL_MARKERS = re.compile(
    r"cancel_point|throw_if_cancelled|cancelled\s*\(|\.beat\s*\("
    r"|heartbeat|\bwait(?:_for|_until|_until_for)?\s*\(|arrive_and_wait"
    r"|\brecv(?:_for)?\s*\(|try_recv|sched_point"
)


def check_missing_cancel_point(ctx: FileCtx) -> list[Diag]:
    out = []
    for idx, text in enumerate(ctx.stripped):
        for m in UNBOUNDED_LOOP.finditer(text):
            first, last = find_body_span(ctx, idx, m.end(1))
            body = "\n".join(ctx.stripped[first : last + 1])
            if CANCEL_MARKERS.search(body):
                continue
            out.append(
                Diag(
                    ctx.rel,
                    idx + 1,
                    m.start(1) + 1,
                    "lbmib-missing-cancel-point",
                    "unbounded loop has no cancel_point(), heartbeat, or "
                    "cancellable blocking call on any path; a wedge here "
                    "is invisible to the watchdog and cannot be unwound "
                    "(src/parallel/cancel.hpp)",
                )
            )
    return out


# --------------------------------------------------------------------
# check: lbmib-df-parity

DF_SWAP_ALLOWED = re.compile(
    r"(^|/)src/(core/[a-z0-9_]+_solver\.cpp|lbm/fluid_grid\.|cube/cube_grid\.)"
)
DF_GRID_INTERNAL = re.compile(r"(^|/)src/(cube/cube_grid\.|lbm/fluid_grid\.)")
DF_SWAP_CALL = re.compile(
    r"(?:\.|->)\s*(swap_buffers|swap_df_buffers)\s*\("
)
DF_SLOT_CONST = re.compile(r"\bkDf(?:New)?Slot\b")
DF_RAW_FIELD = re.compile(r"\b(df_new_base_|df_base_|df_new_|df_)(?![\w])")


def check_df_parity(ctx: FileCtx) -> list[Diag]:
    out = []
    swap_ok = bool(DF_SWAP_ALLOWED.search(ctx.rel))
    internal_ok = bool(DF_GRID_INTERNAL.search(ctx.rel))
    for idx, text in enumerate(ctx.stripped):
        if not swap_ok:
            for m in DF_SWAP_CALL.finditer(text):
                out.append(
                    Diag(
                        ctx.rel,
                        idx + 1,
                        m.start() + 1,
                        "lbmib-df-parity",
                        f"'{m.group(1)}' flips the df/df_new parity; only "
                        "the solver step loops (src/core/*_solver.cpp) may "
                        "call it — everything else must read through the "
                        "parity accessors",
                    )
                )
        if not internal_ok:
            for m in DF_SLOT_CONST.finditer(text):
                out.append(
                    Diag(
                        ctx.rel,
                        idx + 1,
                        m.start() + 1,
                        "lbmib-df-parity",
                        f"raw df slot constant '{m.group(0)}' names the "
                        "construction-time layout and is wrong after "
                        "swap_df_buffers(); use df_slot_base()/"
                        "df_new_slot_base(), or CubeGrid::df_base_for"
                        "(parity) for a captured parity",
                    )
                )
            for m in DF_RAW_FIELD.finditer(text):
                out.append(
                    Diag(
                        ctx.rel,
                        idx + 1,
                        m.start() + 1,
                        "lbmib-df-parity",
                        f"direct access to df storage '{m.group(1)}' "
                        "bypasses the parity accessors; read through "
                        "df()/df_new() or the slot-base helpers",
                    )
                )
    return out


# --------------------------------------------------------------------
# check: lbmib-lock-discipline

LOCK_ALLOWED = re.compile(r"(^|/)src/parallel/")
MANUAL_LOCK = re.compile(r"(?:\.|->)\s*(lock|unlock)\s*\(\s*\)")
SPIN_GUARD_DECL = re.compile(r"\bSpinLockGuard\s+(\w+)\s*[({]")
BLOCKING_CALL = re.compile(
    r"(?:\.|->)\s*(arrive_and_wait|recv|recv_for|wait|wait_for)\s*\("
)


def check_lock_discipline(ctx: FileCtx) -> list[Diag]:
    out = []
    if not LOCK_ALLOWED.search(ctx.rel):
        for idx, text in enumerate(ctx.stripped):
            for m in MANUAL_LOCK.finditer(text):
                out.append(
                    Diag(
                        ctx.rel,
                        idx + 1,
                        m.start() + 1,
                        "lbmib-lock-discipline",
                        f"manual '{m.group(1)}()' call; use a RAII guard "
                        "(SpinLockGuard, MutexLock, std::lock_guard) so "
                        "the lock is released on every path, including "
                        "exceptions and cancellation unwinds",
                    )
                )
    # Blocking while a SpinLockGuard is live: applies everywhere,
    # including src/parallel/.
    for idx, text in enumerate(ctx.stripped):
        for g in SPIN_GUARD_DECL.finditer(text):
            guard = g.group(1)
            # Scan to the end of the block the guard lives in.
            depth = 0
            li, ci = idx, g.end()
            while li < len(ctx.stripped):
                line = ctx.stripped[li]
                for cj in range(ci, len(line)):
                    ch = line[cj]
                    if ch == "{":
                        depth += 1
                    elif ch == "}":
                        depth -= 1
                        if depth < 0:
                            li = len(ctx.stripped)
                            break
                if li >= len(ctx.stripped):
                    break
                if li != idx or True:
                    for b in BLOCKING_CALL.finditer(
                        line[ci:] if li == idx else line
                    ):
                        col = b.start() + (ci if li == idx else 0)
                        out.append(
                            Diag(
                                ctx.rel,
                                li + 1,
                                col + 1,
                                "lbmib-lock-discipline",
                                f"blocking call '{b.group(1)}' while a "
                                f"SpinLock is held (guard '{guard}' is "
                                "live): spin-waiters burn a core and "
                                "defer their cancel polls; scope the "
                                "guard so it is released before blocking",
                            )
                        )
                li += 1
                ci = 0
    return out


# --------------------------------------------------------------------
# check: lbmib-nondeterminism

NONDET_CALL = re.compile(
    r"\b(rand|srand|time|clock|drand48|lrand48|gettimeofday)\s*\("
)
NONDET_WALLCLOCK = re.compile(
    r"std::chrono::(?:system_clock|high_resolution_clock)::now\b"
)
NONDET_RANDOM_DEVICE = re.compile(r"std::random_device\b")
NONDET_PTR_KEYED = re.compile(
    r"std::(map|set|multimap|multiset)\s*<\s*[^,>]*\*"
)
# Floating-point atomic accumulation into simulation state: the adds land
# in schedule order, so the sums differ from run to run. Scoped to the
# simulation modules (and this check's fixtures); src/obs counters are
# telemetry, not simulation state, and stay allowed.
NONDET_FP_ATOMIC_SCOPE = re.compile(
    r"(^|/)(src/(?:lbm|ib|cube|core)/[^/]+"
    r"|tests/lint/fixtures/nondeterminism_[a-z]+\.cpp)$"
)
NONDET_FP_TYPE = r"\s*<\s*(?:Real|double|float)\s*>"
NONDET_FP_ATOMIC_REF = re.compile(r"std::atomic_ref" + NONDET_FP_TYPE)
# A name declared as (a container of) std::atomic<FP>: the first
# identifier after the type that ends a declarator.
NONDET_FP_ATOMIC_DECL = re.compile(
    r"std::atomic" + NONDET_FP_TYPE + r"[^;]*?\b(\w+)\s*[;{=\[(),]"
)
NONDET_ATOMIC_UPDATE = (
    r"\b{name}\b(?:\s*\[[^\]]*\])*\s*(?:\.|->)\s*"
    r"(fetch_add|fetch_sub|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\("
)
NONDET_FP_ATOMIC_HINT = (
    "simulation state must sum in a fixed order: give each fluid node "
    "one writer (owner computes, DESIGN.md §7); only src/obs telemetry "
    "may accumulate atomically"
)


def check_fp_atomics(ctx: FileCtx) -> list[Diag]:
    if not NONDET_FP_ATOMIC_SCOPE.search(ctx.rel):
        return []
    names = {
        m.group(1)
        for text in ctx.stripped
        for m in NONDET_FP_ATOMIC_DECL.finditer(text)
    }
    updates = [
        re.compile(NONDET_ATOMIC_UPDATE.format(name=re.escape(n)))
        for n in sorted(names)
    ]
    out = []
    for idx, text in enumerate(ctx.stripped):
        for m in NONDET_FP_ATOMIC_REF.finditer(text):
            out.append(
                Diag(
                    ctx.rel,
                    idx + 1,
                    m.start() + 1,
                    "lbmib-nondeterminism",
                    "std::atomic_ref over a floating-point value "
                    "accumulates in schedule order; "
                    + NONDET_FP_ATOMIC_HINT,
                )
            )
        for update in updates:
            for m in update.finditer(text):
                out.append(
                    Diag(
                        ctx.rel,
                        idx + 1,
                        m.start() + 1,
                        "lbmib-nondeterminism",
                        "floating-point std::atomic updated by "
                        f"'{m.group(1)}' accumulates in schedule order; "
                        + NONDET_FP_ATOMIC_HINT,
                    )
                )
    return out


def check_nondeterminism(ctx: FileCtx) -> list[Diag]:
    out = check_fp_atomics(ctx)
    for idx, text in enumerate(ctx.stripped):
        for m in NONDET_CALL.finditer(text):
            out.append(
                Diag(
                    ctx.rel,
                    idx + 1,
                    m.start() + 1,
                    "lbmib-nondeterminism",
                    f"'{m.group(1)}' is nondeterministic across runs; "
                    "kernel/scheduler code must stay replayable for the "
                    "model checker and checkpoint replay — use "
                    "lbmib::SplitMix64 (src/common/rng.hpp) with an "
                    "explicit seed, or take the time as a parameter",
                )
            )
        for m in NONDET_WALLCLOCK.finditer(text):
            out.append(
                Diag(
                    ctx.rel,
                    idx + 1,
                    m.start() + 1,
                    "lbmib-nondeterminism",
                    "wall-clock read is nondeterministic across runs; use "
                    "std::chrono::steady_clock for durations, or take the "
                    "timestamp as a parameter so replays can pin it",
                )
            )
        for m in NONDET_RANDOM_DEVICE.finditer(text):
            out.append(
                Diag(
                    ctx.rel,
                    idx + 1,
                    m.start() + 1,
                    "lbmib-nondeterminism",
                    "std::random_device draws from the OS entropy pool "
                    "and cannot be replayed; seed lbmib::SplitMix64 "
                    "(src/common/rng.hpp) explicitly instead",
                )
            )
        for m in NONDET_PTR_KEYED.finditer(text):
            out.append(
                Diag(
                    ctx.rel,
                    idx + 1,
                    m.start() + 1,
                    "lbmib-nondeterminism",
                    f"pointer-keyed 'std::{m.group(1)}' iterates in "
                    "address order, which differs run to run and breaks "
                    "model-checker and checkpoint replay; key by a "
                    "stable id instead",
                )
            )
    return out


# --------------------------------------------------------------------
# check: lbmib-raw-timing
#
# The solver step loops time, trace and count each phase through one
# seam, KernelScope (src/core/instrument.hpp), keyed by the phase table
# (src/common/profiler.hpp). A hand-written clock read next to it is a
# second, drifting copy of that seam. The check's own fixtures are in
# scope so both engines can be held to it.

RAW_TIMING_SCOPE = re.compile(
    r"(^|/)(src/core/[a-z0-9_]+_solver\.cpp"
    r"|tests/lint/fixtures/raw_timing_[a-z]+\.cpp)$"
)
RAW_TIMING = re.compile(r"\b(?:steady_clock|WallTimer)\b|\bClock::now\b")


def check_raw_timing(ctx: FileCtx) -> list[Diag]:
    if not RAW_TIMING_SCOPE.search(ctx.rel):
        return []
    out = []
    for idx, text in enumerate(ctx.stripped):
        for m in RAW_TIMING.finditer(text):
            out.append(
                Diag(
                    ctx.rel,
                    idx + 1,
                    m.start() + 1,
                    "lbmib-raw-timing",
                    f"hand-timed phase in a solver body ('{m.group(0)}'); "
                    "wrap the phase in KernelScope (src/core/instrument.hpp) "
                    "so its profiler row, span and counters share one "
                    "phase-table name",
                )
            )
    return out


# --------------------------------------------------------------------
# driver

CHECKS = {
    "lbmib-raw-sync": check_raw_sync,
    "lbmib-missing-cancel-point": check_missing_cancel_point,
    "lbmib-df-parity": check_df_parity,
    "lbmib-lock-discipline": check_lock_discipline,
    "lbmib-nondeterminism": check_nondeterminism,
    "lbmib-raw-timing": check_raw_timing,
}


def lint_file(path: pathlib.Path, rel: str | None = None) -> list[Diag]:
    if rel is None:
        try:
            rel = path.resolve().relative_to(REPO).as_posix()
        except ValueError:
            rel = path.as_posix()
    ctx = FileCtx(path, rel)
    diags: list[Diag] = []
    for check, fn in CHECKS.items():
        for d in fn(ctx):
            if not ctx.suppressed(d.line, check):
                diags.append(d)
    diags.sort(key=lambda d: (d.line, d.col, d.check))
    return diags


def tree_files() -> list[pathlib.Path]:
    return sorted(
        p
        for pattern in ("src/**/*.hpp", "src/**/*.cpp", "src/**/*.h")
        for p in REPO.glob(pattern)
    )


# --------------------------------------------------------------------
# self-test: each check must fire on an injected violation, stay silent
# on the compliant variant, and honor NOLINT.

SELF_TESTS = [
    # (check, violating snippet, clean snippet[, repo-relative path the
    # snippets are linted as; default: a temporary file name outside src/])
    (
        "lbmib-raw-sync",
        "std::mutex m_;\n",
        "lbmib::Mutex m_;\n",
    ),
    (
        "lbmib-missing-cancel-point",
        "void f() {\n  for (;;) {\n    step();\n  }\n}\n",
        "void f() {\n  for (;;) {\n    cancel_point(\"f\");\n    step();\n"
        "  }\n}\n",
    ),
    (
        "lbmib-df-parity",
        "void f(CubeGrid& g) { g.swap_df_buffers(); }\n",
        "void f(CubeGrid& g) { auto b = g.df_slot_base(); (void)b; }\n",
    ),
    (
        "lbmib-lock-discipline",
        "void f() {\n  mu.lock();\n  touch();\n  mu.unlock();\n}\n",
        "void f() {\n  SpinLockGuard guard(mu);\n  touch();\n}\n",
    ),
    (
        "lbmib-nondeterminism",
        "int f() { return rand(); }\n",
        "int f(lbmib::SplitMix64& rng) { return int(rng.next()); }\n",
    ),
    (
        "lbmib-nondeterminism",  # FP atomics, scoped to simulation state
        "void f(Real& x, Real v) {\n"
        "  std::atomic_ref<Real>(x).fetch_add(v);\n}\n",
        "void f(std::atomic<long>& n) { n.fetch_add(1); }\n",
        "src/ib/case.cpp",
    ),
    (
        # src/obs telemetry may add atomically: the violating variant
        # fires only on its rand()
        "lbmib-nondeterminism",
        "std::atomic<double> sum;\nvoid f(double v) { sum.fetch_add(v); }\n"
        "int g() { return rand(); }\n",
        "std::atomic<double> sum;\nvoid f(double v) { sum.fetch_add(v); }\n",
        "src/obs/case.cpp",
    ),
    (
        "lbmib-raw-sync",  # NOLINT suppression path
        "std::thread t_;  // not suppressed\n",
        "std::thread t_;  // NOLINT(lbmib-raw-sync) monitor daemon\n",
    ),
    (
        "lbmib-missing-cancel-point",  # NOLINTNEXTLINE + glob
        "while (true) {\n  spin();\n}\n",
        "// NOLINTNEXTLINE(lbmib-*) bounded by the frame stack\n"
        "while (true) {\n  spin();\n}\n",
    ),
    (
        "lbmib-raw-timing",  # scoped to the solver step loops
        "void f() {\n  WallTimer t;\n  work();\n}\n",
        "void f() {\n  KernelScope s(prof, Phase::kBending);\n  work();\n}\n",
        "src/core/case_solver.cpp",
    ),
]


def self_test() -> int:
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (check, bad, good, *rel) in enumerate(SELF_TESTS):
            for variant, text, expect_fire in (
                ("bad", bad, True),
                ("good", good, False),
            ):
                p = pathlib.Path(tmp) / f"case{i}_{variant}.cpp"
                p.write_text(text)
                diags = [
                    d
                    for d in lint_file(p, rel[0] if rel else p.name)
                    if d.check == check
                ]
                fired = len(diags) > 0
                if fired != expect_fire:
                    failures += 1
                    print(
                        f"self-test FAIL: {check} case {i} {variant}: "
                        f"expected fire={expect_fire}, got {fired}",
                        file=sys.stderr,
                    )
    if failures == 0:
        print(f"lbmib_lint self-test: {len(SELF_TESTS) * 2} cases ok")
        return 0
    return 2


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="files to lint (default: src/)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.list_checks:
        for name in CHECKS:
            print(name)
        return 0

    files = (
        [pathlib.Path(f) for f in args.files] if args.files else tree_files()
    )
    total = 0
    for f in files:
        if not f.exists():
            print(f"error: no such file: {f}", file=sys.stderr)
            return 2
        for d in lint_file(f):
            print(d)
            total += 1
    if total:
        print(f"lbmib_lint: {total} diagnostic(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
