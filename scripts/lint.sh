#!/usr/bin/env bash
# One driver for every static gate in the repo, with a uniform exit code.
#
# Usage: scripts/lint.sh [--strict] [--log FILE] [--only LEG[,LEG...]]
#
# Legs, in order:
#   lbmib     the six lbmib-* protocol checks (DESIGN.md §17) — via the
#             clang-tidy plugin when one is available, else via the
#             portable engine scripts/lbmib_lint.py
#   tidy      stock clang-tidy profile (.clang-tidy) over src/
#   analyzer  Clang Static Analyzer leg of the same script
#   sync      scripts/check_sync_points.py (self-test, then the tree)
#   vec       scripts/check_vectorization.sh (hot loops stay vectorized)
#
# A leg whose tool is missing is SKIPPED with a notice and does not fail
# the run — every developer box has python3, so the protocol checks
# always execute somewhere, but clang-tidy and the analyzer only run
# where LLVM is installed. --strict turns skips into failures; CI's
# custom-lint job passes it so a silently missing tool cannot turn the
# gate green.
#
# Plugin discovery for the lbmib leg: $LBMIB_TIDY_PLUGIN if set, else
# the first build*/tools/lint/liblbmib_tidy.so in the repo. When neither
# exists (or clang-tidy itself is absent) the Python engine runs
# instead; the fixtures in tests/lint/ hold both engines to the same
# diagnostics.
#
# Exit code: 0 all legs passed (skips allowed unless --strict),
#            1 at least one leg failed or (--strict) was skipped.
set -uo pipefail

cd "$(dirname "$0")/.."

STRICT=0
LOG=""
ONLY=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --strict) STRICT=1; shift ;;
    --log) LOG="${2:?--log needs a file}"; shift 2 ;;
    --only) ONLY="${2:?--only needs a leg list}"; shift 2 ;;
    *) echo "usage: $0 [--strict] [--log FILE] [--only LEG[,LEG...]]" >&2
       exit 1 ;;
  esac
done

if [[ -n "$LOG" ]]; then
  : > "$LOG"
  exec > >(tee -a "$LOG") 2>&1
fi

FAILED=()
SKIPPED=()

wants() {
  [[ -z "$ONLY" ]] || [[ ",$ONLY," == *",$1,"* ]]
}

note() { echo "== lint.sh: $*"; }

run_leg() {
  local leg="$1"; shift
  note "[$leg] $*"
  if "$@"; then
    note "[$leg] OK"
  else
    note "[$leg] FAILED (exit $?)"
    FAILED+=("$leg")
  fi
}

skip_leg() {
  local leg="$1"; shift
  note "[$leg] SKIPPED: $*"
  SKIPPED+=("$leg")
}

# --- lbmib: the six protocol checks ----------------------------------
if wants lbmib; then
  PLUGIN="${LBMIB_TIDY_PLUGIN:-}"
  if [[ -z "$PLUGIN" ]]; then
    for so in build*/tools/lint/liblbmib_tidy.so; do
      [[ -f "$so" ]] && PLUGIN="$so" && break
    done
  fi
  if [[ -n "$PLUGIN" && -f "$PLUGIN" ]]; then
    run_leg lbmib scripts/run_clang_tidy.sh --lbmib "$PLUGIN"
  else
    note "[lbmib] no plugin found; using the portable engine"
    run_leg lbmib python3 scripts/lbmib_lint.py --self-test
    run_leg lbmib python3 scripts/lbmib_lint.py
  fi
fi

# --- tidy / analyzer: stock clang-tidy profiles ----------------------
if wants tidy; then
  if command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
    run_leg tidy scripts/run_clang_tidy.sh
  else
    skip_leg tidy "clang-tidy not installed"
  fi
fi
if wants analyzer; then
  if command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
    run_leg analyzer scripts/run_clang_tidy.sh --analyzer
  else
    skip_leg analyzer "clang-tidy not installed"
  fi
fi

# --- sync: blocking-primitive seam lint ------------------------------
if wants sync; then
  run_leg sync python3 scripts/check_sync_points.py --self-test
  run_leg sync python3 scripts/check_sync_points.py
fi

# --- vec: hot loops stay vectorized ----------------------------------
if wants vec; then
  if command -v "${CXX:-g++}" >/dev/null 2>&1; then
    run_leg vec scripts/check_vectorization.sh
  else
    skip_leg vec "no C++ compiler on PATH"
  fi
fi

# --- summary ---------------------------------------------------------
echo
if ((${#SKIPPED[@]})); then
  note "skipped: ${SKIPPED[*]}"
fi
if ((${#FAILED[@]})); then
  note "FAILED legs: ${FAILED[*]}"
  exit 1
fi
if ((STRICT)) && ((${#SKIPPED[@]})); then
  note "--strict: skipped legs count as failures"
  exit 1
fi
note "all legs passed"
exit 0
