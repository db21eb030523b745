# Fails when a committed Google-benchmark capture lacks its stamp.
#
#   cmake -DDIR=<repository root> -P tools/check_bench_stamps.cmake
#
# Checks every BENCH_*.json in DIR that Google benchmark wrote (its context
# has `library_build_type`; BENCH_shootout.json is simulated output, not a
# timing, and has none).  Each must carry the context keys that
# tools/bench_capture.sh passes with --benchmark_context, so a number can
# be matched to the build, the machine and the code it was measured on.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

set(stamp_keys preset build_type nproc git_base src_tree bench_tree)

if(NOT DIR)
  message(FATAL_ERROR "usage: cmake -DDIR=<dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(GLOB captures "${DIR}/BENCH_*.json")
set(checked 0)
set(failed 0)
foreach(path IN LISTS captures)
  get_filename_component(name "${path}" NAME)
  file(READ "${path}" json)
  # Google benchmark writes NaN (e.g. the cv of an all-zero counter), which
  # strict JSON, and so string(JSON), rejects.
  string(REGEX REPLACE ": -?NaN" ": null" json "${json}")
  string(JSON context ERROR_VARIABLE err GET "${json}" context)
  if(err)
    message(SEND_ERROR "${name}: no context object")
    math(EXPR failed "${failed} + 1")
    continue()
  endif()
  string(JSON library ERROR_VARIABLE err GET "${context}" library_build_type)
  if(err)
    continue()  # not written by Google benchmark
  endif()
  math(EXPR checked "${checked} + 1")
  foreach(key IN LISTS stamp_keys)
    string(JSON value ERROR_VARIABLE err GET "${context}" ${key})
    if(err OR value STREQUAL "")
      message(SEND_ERROR "${name}: context lacks `${key}`")
      math(EXPR failed "${failed} + 1")
    endif()
  endforeach()
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "no Google-benchmark capture found in ${DIR}")
endif()
if(failed GREATER 0)
  message(FATAL_ERROR "${failed} stamp problem(s) in ${checked} capture(s)")
endif()
message(STATUS "${checked} capture(s) stamped")
