#!/usr/bin/env bash
# Runs a Google-benchmark binary and writes a stamped JSON capture.
#
#   tools/bench_capture.sh <build-dir> <binary> <filter> <out.json>
#
# e.g. (from the repository root, on a `cmake --preset perf` tree):
#   tools/bench_capture.sh build-perf micro_benchmarks \
#       'BM_MetricRecord|BM_RunStep' BENCH_obs.json
#   tools/bench_capture.sh build-perf bench_net BM_Net BENCH_net.json
#
# Five repetitions per benchmark, randomly interleaved, so frequency
# scaling and host drift spread across the benchmarks instead of landing on
# whichever runs last.  The capture's `context` records where the numbers
# come from (tools/check_bench_stamps.cmake checks every committed one):
#   preset      the CMake preset, from the build directory's name
#               (build -> default, build-<p> -> <p>)
#   build_type  CMAKE_BUILD_TYPE of the build directory
#   nproc       online cores
#   git_base    the commit checked out
#   src_tree    git tree ids of src/ and bench/ as measured, uncommitted
#   bench_tree  edits included (comparable with `git rev-parse HEAD:src`)
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 <build-dir> <binary> <filter> <out.json>" >&2
  exit 2
fi
build=$1
binary=$2
filter=$3
out=$4

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cache="$build/CMakeCache.txt"
exe="$build/bench/$binary"
[ -f "$cache" ] || { echo "$0: no CMakeCache.txt in $build" >&2; exit 2; }
[ -x "$exe" ] || { echo "$0: $exe is not built" >&2; exit 2; }

name=$(basename "$build")
case "$name" in
  build) preset=default ;;
  build-*) preset=${name#build-} ;;
  *) preset=none ;;
esac
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$cache")

# Tree ids of the working copy: stage src/ and bench/ into a scratch index
# seeded from HEAD, leaving the real index alone.
index=$(mktemp)
trap 'rm -f "$index"' EXIT
export GIT_INDEX_FILE=$index
git -C "$root" read-tree HEAD
git -C "$root" add -A src bench
src_tree=$(git -C "$root" write-tree --prefix=src/)
bench_tree=$(git -C "$root" write-tree --prefix=bench/)
unset GIT_INDEX_FILE

"$exe" \
  --benchmark_filter="$filter" \
  --benchmark_min_time=0.1 \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  --benchmark_context="preset=$preset,build_type=$build_type,nproc=$(nproc),git_base=$(git -C "$root" rev-parse HEAD),src_tree=$src_tree,bench_tree=$bench_tree"
