#!/usr/bin/env bash
# Run clang-tidy (config: .clang-tidy) over the library sources.
#
# Usage: scripts/run_clang_tidy.sh [--analyzer | --lbmib PLUGIN.so] [build-dir]
#
# Generates compile_commands.json in a dedicated build tree (default:
# build-tidy) so the main build is untouched, then tidies every .cpp
# under src/. Uses run-clang-tidy for parallelism when available, plain
# clang-tidy otherwise. Exits non-zero on any diagnostic that
# .clang-tidy promotes to an error.
#
# --analyzer restricts the run to the Clang Static Analyzer group
# (clang-analyzer-*, minus the suppressions documented in .clang-tidy):
# the path-sensitive checks are ~10x slower than the syntactic ones, so
# the CI clang job runs them as their own leg instead of serializing
# them behind the fast profile.
#
# --lbmib PLUGIN.so loads the lbmib-tidy plugin (tools/lint/) and runs
# ONLY its six protocol checks, all promoted to errors. The plugin must
# have been built against the same LLVM as the clang-tidy binary; set
# LLVM_DIR to the install CMake was pointed at and this script resolves
# the matching binary from it.
#
# Binary selection (first match wins):
#   $CLANG_TIDY / $RUN_CLANG_TIDY   explicit override
#   $LLVM_DIR                       <prefix>/bin/clang-tidy of that install
#   PATH                            whatever 'clang-tidy' resolves to
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=full
PLUGIN=""
case "${1:-}" in
  --analyzer)
    MODE=analyzer
    shift
    ;;
  --lbmib)
    MODE=lbmib
    PLUGIN="${2:?--lbmib needs the plugin path (liblbmib_tidy.so)}"
    shift 2
    ;;
esac
BUILD_DIR="${1:-build-tidy}"

# Resolve the clang-tidy binary. LLVM_DIR is typically
# <prefix>/lib/cmake/llvm; strip back to the prefix for bin/.
TIDY_BIN="${CLANG_TIDY:-}"
if [[ -z "$TIDY_BIN" && -n "${LLVM_DIR:-}" ]]; then
  llvm_prefix="${LLVM_DIR%%/lib/cmake*}"
  [[ -x "$llvm_prefix/bin/clang-tidy" ]] && TIDY_BIN="$llvm_prefix/bin/clang-tidy"
fi
TIDY_BIN="${TIDY_BIN:-clang-tidy}"

if ! command -v "$TIDY_BIN" >/dev/null 2>&1; then
  echo "error: clang-tidy not found ('$TIDY_BIN')." >&2
  echo "Install LLVM/Clang (e.g. 'apt install clang-tidy'), or point" >&2
  echo "CLANG_TIDY or LLVM_DIR at an install; the CI clang-tidy job" >&2
  echo "runs this script on every push." >&2
  exit 1
fi

TIDY_ARGS=()
case "$MODE" in
  analyzer)
    # Restrict to the analyzer group while keeping .clang-tidy's
    # documented suppressions (a -checks= filter composes with the
    # config file's list).
    TIDY_ARGS+=("-checks=-*,clang-analyzer-*,-clang-analyzer-optin.performance.Padding,-clang-analyzer-optin.cplusplus.VirtualCall")
    ;;
  lbmib)
    if [[ ! -f "$PLUGIN" ]]; then
      echo "error: lbmib-tidy plugin not found: $PLUGIN" >&2
      echo "Build it with: cmake -B build-lint -S . -DLBMIB_BUILD_LINT=ON" >&2
      echo "               cmake --build build-lint --target lbmib_tidy" >&2
      exit 1
    fi
    TIDY_ARGS+=("--load=$PLUGIN"
                "-checks=-*,lbmib-*"
                "-warnings-as-errors=lbmib-*")
    ;;
esac

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DLBMIB_BUILD_BENCH=OFF >/dev/null

mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
echo "clang-tidy [$MODE] over ${#SOURCES[@]} files (database: $BUILD_DIR, binary: $TIDY_BIN)"

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

# run-clang-tidy parallelizes across files; use it when present and
# point it at the same binary so a CLANG_TIDY/LLVM_DIR override applies
# to both paths. The plugin mode keeps working either way because
# --load travels through as an extra clang-tidy argument.
RUN_TIDY_BIN="${RUN_CLANG_TIDY:-}"
if [[ -z "$RUN_TIDY_BIN" && -n "${LLVM_DIR:-}" ]]; then
  llvm_prefix="${LLVM_DIR%%/lib/cmake*}"
  [[ -x "$llvm_prefix/bin/run-clang-tidy" ]] && RUN_TIDY_BIN="$llvm_prefix/bin/run-clang-tidy"
fi
RUN_TIDY_BIN="${RUN_TIDY_BIN:-run-clang-tidy}"

STATUS=0
if command -v "$RUN_TIDY_BIN" >/dev/null 2>&1; then
  "$RUN_TIDY_BIN" -quiet -p "$BUILD_DIR" \
    -clang-tidy-binary "$(command -v "$TIDY_BIN")" "${TIDY_ARGS[@]}" \
    "${SOURCES[@]}" 2>&1 | tee "$LOG" || STATUS=$?
else
  # Sweep every file even after one fails, so a single run reports the
  # full finding set.
  for src in "${SOURCES[@]}"; do
    "$TIDY_BIN" -quiet -p "$BUILD_DIR" "${TIDY_ARGS[@]}" "$src" 2>&1 \
      | tee -a "$LOG" || STATUS=$?
  done
fi

# run-clang-tidy releases differ on whether per-file failures reach the
# exit code, so gate on the log as well: every diagnostic promoted by
# WarningsAsErrors prints ": error:".
if grep -q ": error:" "$LOG"; then
  echo "clang-tidy: promoted diagnostics found (see log above)" >&2
  exit 1
fi
exit "$STATUS"
