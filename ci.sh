#!/usr/bin/env sh
# One-command verify matrix.  CMake workflow presets cannot chain
# configure presets (each workflow is pinned to its first configure
# step), so the matrix is five workflows run back to back:
#
#   default  Release build, full ctest suite (tier-1 gate)
#   scalar   forced-scalar SIMD fallback, full ctest suite
#   tsan     ThreadSanitizer build, tier1-tsan labelled tests
#   asan     AddressSanitizer build, full ctest suite
#   ubsan    UndefinedBehaviorSanitizer build (a report aborts the
#            test), full ctest suite
#
# Usage: ./ci.sh            (from the repository root)
set -e
for wf in ci ci-scalar ci-tsan ci-asan ci-ubsan; do
  echo "==== cmake --workflow --preset ${wf} ===="
  cmake --workflow --preset "${wf}"
done
echo "==== tuning_shootout --smoke ===="
./build/examples/tuning_shootout --smoke \
  --json=build/BENCH_shootout.json > /dev/null
echo "==== verify matrix green ===="
