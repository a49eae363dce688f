#!/usr/bin/env bash
# Build and run the test suite under a sanitizer.
#
# Usage: scripts/run_sanitized_tests.sh [address|thread|undefined|race|modelcheck] [build-dir]
#
#   address    ASan + UBSan, plus the runtime cube-ownership checker
#              (-DLBMIB_CHECK_ACCESS=ON); runs the full suite. Default.
#   thread     ThreadSanitizer; runs the `concurrency` and `chaos` ctest
#              labels — the std::thread solver/barrier/spinlock path and
#              the liveness layer. The OpenMP suite
#              is excluded because GCC's libgomp is not TSan-instrumented
#              (tsan.supp suppresses any stragglers from that library).
#   undefined  UBSan alone — cheap enough for quick local iteration.
#   race       The library's own happens-before race detector
#              (-DLBMIB_RACE_DETECT=ON) over the full suite, OpenMP
#              included — it instruments the library's sync primitives,
#              not the hardware, so it covers what the TSan leg cannot.
#   modelcheck The DPOR schedule-space model checker
#              (-DLBMIB_MODELCHECK=ON, which force-enables the race
#              detector and access checker); runs the `modelcheck` ctest
#              label: exhaustive interleaving exploration of the
#              primitive models plus the injected-bug detectors. Failing
#              schedules are written to $LBMIB_MC_ARTIFACT_DIR when set.
#
# Each mode uses a dedicated build tree (default: build-<mode>) so the
# sanitized configuration never pollutes the regular one. The build type
# defaults to RelWithDebInfo inside CMake when sanitizing; override with
# BUILD_TYPE=Debug etc. Any failure — build error, test failure, or
# sanitizer report — exits non-zero.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-address}"
case "$MODE" in
  address|thread|undefined|race|modelcheck) ;;
  *)
    echo "usage: $0 [address|thread|undefined|race|modelcheck] [build-dir]" >&2
    exit 2
    ;;
esac
BUILD_DIR="${2:-build-${MODE}}"

CMAKE_ARGS=(-DLBMIB_BUILD_BENCH=OFF)
if [[ -n "${BUILD_TYPE:-}" ]]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
fi

CTEST_ARGS=()
case "$MODE" in
  address)
    # ASan's shadow memory makes the ownership checker's extra branches
    # cheap by comparison, so this leg also turns the checker on.
    CMAKE_ARGS+=(-DLBMIB_SANITIZE=address,undefined -DLBMIB_CHECK_ACCESS=ON)
    # halt_on_error keeps a UBSan hit from scrolling past unnoticed;
    # detect_leaks stays on (the default) to catch checkpoint buffer leaks.
    export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1"
    export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
    ;;
  thread)
    CMAKE_ARGS+=(-DLBMIB_SANITIZE=thread)
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$PWD/tsan.supp"
    CTEST_ARGS+=(-L 'concurrency|chaos')
    ;;
  undefined)
    CMAKE_ARGS+=(-DLBMIB_SANITIZE=undefined)
    export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
    ;;
  race)
    # No sanitizer: the detector is ordinary library code, so the whole
    # suite (OpenMP solvers included) runs under it. A detected race
    # throws lbmib::Error and fails the owning test.
    CMAKE_ARGS+=(-DLBMIB_RACE_DETECT=ON)
    ;;
  modelcheck)
    # No sanitizer either: the checker serializes its virtual threads,
    # so TSan would see nothing and only slow the exploration. The gate
    # force-enables LBMIB_RACE_DETECT and LBMIB_CHECK_ACCESS so every
    # explored schedule runs under both.
    CMAKE_ARGS+=(-DLBMIB_MODELCHECK=ON)
    CTEST_ARGS+=(-L modelcheck)
    ;;
esac

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j"$(nproc)"

# A label filter that selects nothing would pass without testing anything.
scripts/check_ctest_selection.sh "$BUILD_DIR" "${CTEST_ARGS[@]}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
  "${CTEST_ARGS[@]}"
