#!/usr/bin/env sh
# One-command verify matrix.  CMake workflow presets cannot chain
# configure presets (each workflow is pinned to its first configure
# step), so the matrix is four workflows run back to back:
#
#   default  Release build, full ctest suite (tier-1 gate)
#   tsan     ThreadSanitizer build, tier1-tsan labelled tests
#   asan     AddressSanitizer build, full ctest suite
#   ubsan    UndefinedBehaviorSanitizer build (a report aborts the
#            test), full ctest suite
#
# The three sanitizer legs are RelWithDebInfo builds with
# PROTUNER_WERROR=ON: a compiler warning fails them.  The strategy
# shootout smoke sweep is the bench_smoke_shootout ctest, so every leg
# already runs it (tsan through its tier1-tsan label).
#
# Every leg builds and tests in parallel: CMAKE_BUILD_PARALLEL_LEVEL and
# CTEST_PARALLEL_LEVEL default to the core count when unset (the presets
# set no `jobs`, so CMake would otherwise build and test serially).
#
# Usage: ./ci.sh            (from the repository root)
set -e
: "${CMAKE_BUILD_PARALLEL_LEVEL:=$(nproc)}"
: "${CTEST_PARALLEL_LEVEL:=$(nproc)}"
export CMAKE_BUILD_PARALLEL_LEVEL CTEST_PARALLEL_LEVEL
for wf in ci ci-tsan ci-asan ci-ubsan; do
  echo "==== cmake --workflow --preset ${wf} ===="
  cmake --workflow --preset "${wf}"
done
echo "==== verify matrix green ===="
