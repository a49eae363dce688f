#!/usr/bin/env bash
# Compare the simulation state of the working tree with that of a
# revision, cell by cell.
#
#   scripts/compare_states.sh <rev> [state_sweep options...]
#
# Exports <rev> into a temporary directory (git archive), builds the
# library of each tree in Release, and compiles the working tree's
# tools/state_sweep program against both with the same flags. Both
# builds run the same matrix (options such as --preset quick are passed
# through), and every cell whose hashes differ is printed with the
# columns that differ: df, rho, u, X (fiber positions) and f (fluid
# force). Exits 0 when no cell differs, 1 when some do, 2 on a usage or
# build error.
#
# Hashes are compared only between these two builds: FMA contraction
# differs between -march=native, the -mavx2 -mfma fallback and the
# sanitizer builds, so no hash is stored anywhere.
set -euo pipefail

if [[ $# -lt 1 || "$1" == -* ]]; then
  echo "usage: $0 <rev> [state_sweep options...]" >&2
  exit 2
fi
rev="$1"
shift

root="$(git rev-parse --show-toplevel)"
if ! git -C "$root" rev-parse --verify --quiet "${rev}^{commit}" >/dev/null; then
  echo "compare_states: '${rev}' is not a commit" >&2
  exit 2
fi
work="$(mktemp -d "${TMPDIR:-/tmp}/compare_states.XXXXXX")"
trap 'rm -rf "${work}"' EXIT
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4

# An export rather than a worktree: nothing is registered in the
# repository's .git, so an interrupted run leaves nothing to prune.
mkdir "${work}/base-src"
git -C "$root" archive "${rev}" | tar -x -C "${work}/base-src"

build() {  # <name> <library tree>
  local dir="${work}/$1"
  cmake -S "${root}/tools/state_sweep" -B "${dir}" \
    -DCMAKE_BUILD_TYPE=Release -DLBMIB_SOURCE_DIR="$2" \
    >"${work}/$1.configure.log" 2>&1 ||
    { cat "${work}/$1.configure.log" >&2; exit 2; }
  cmake --build "${dir}" --target state_sweep -j"${jobs}" \
    >"${work}/$1.build.log" 2>&1 ||
    { tail -40 "${work}/$1.build.log" >&2; exit 2; }
}

echo "compare_states: building ${rev} and the working tree" >&2
build base "${work}/base-src"
build head "${root}"
# The libraries' compile lines must match, or the hashes mean nothing.
flags() {
  grep -h -E '^(CXX_FLAGS|CXX_DEFINES) =' \
    "${work}/$1/lbmib/src/CMakeFiles/lbmib_core.dir/flags.make" 2>/dev/null
}
if [[ "$(flags base)" != "$(flags head)" ]]; then
  echo "compare_states: the two libraries were built with different flags:" >&2
  diff <(flags base) <(flags head) >&2 || true
fi

echo "compare_states: running the sweep on both" >&2
start=${SECONDS}
"${work}/base/state_sweep" "$@" >"${work}/base.txt"
"${work}/head/state_sweep" "$@" >"${work}/head.txt"
echo "compare_states: both sweeps took $((SECONDS - start)) s" >&2

# Lines are: cell <id> df=<h> rho=<h> u=<h> X=<h> f=<h>
awk '
  FILENAME == ARGV[1] { base[$2] = $0; next }
  {
    total++
    if (!($2 in base)) { print "only in working tree: " $2; differ++; next }
    seen[$2] = 1
    if (base[$2] == $0) next
    split(base[$2], b, " ")
    cols = ""
    for (i = 3; i <= NF; i++) {
      if (b[i] != $i) {
        name = $i; sub(/=.*/, "", name)
        cols = cols (cols == "" ? "" : ",") name
        count[name]++
      }
    }
    print "differs " $2 ": " cols
    differ++
  }
  END {
    for (id in base) if (!(id in seen)) { print "only in base: " id; differ++ }
    summary = ""
    for (c in count) summary = summary " " c "=" count[c]
    printf "compare_states: %d cells, %d differ%s\n", total, differ + 0,
           summary == "" ? "" : " (by column:" summary ")"
    exit differ > 0
  }
' "${work}/base.txt" "${work}/head.txt"
