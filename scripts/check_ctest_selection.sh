#!/usr/bin/env bash
# Fail when a ctest selection matches no test in a build tree.
#
# Usage: scripts/check_ctest_selection.sh <build-dir> [ctest selection args...]
#
#   scripts/check_ctest_selection.sh build -L chaos
#   scripts/check_ctest_selection.sh build -L 'concurrency|chaos'
#
# `ctest -L <label>` over a label nobody carries runs zero tests and still
# exits 0, so a mislabeled test silently drops out of its gate. CI runs
# this with the same tree and arguments before every label-filtered
# ctest step; it lists the selection with `ctest -N` and exits 1 when the
# count is zero.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <build-dir> [ctest selection args...]" >&2
  exit 2
fi
BUILD_DIR="$1"
shift

count="$(ctest --test-dir "$BUILD_DIR" -N "$@" |
  sed -n 's/^Total Tests: *\([0-9][0-9]*\)$/\1/p')"
if [[ -z "$count" || "$count" -eq 0 ]]; then
  echo "error: ctest $* selects no test in $BUILD_DIR" >&2
  exit 1
fi
echo "ctest $* selects $count tests in $BUILD_DIR"
