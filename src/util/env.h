// Environment-variable helpers for the bench harnesses: repetition counts
// default to laptop-friendly values and can be raised to the paper's full
// scale via REPRO_REPS etc.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <string>

namespace protuner::util {

/// Reads an integer environment variable, returning `fallback` when unset or
/// unparsable (trailing characters, or a value outside the range of long).
inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  return (*end == '\0' && errno != ERANGE) ? parsed : fallback;
}

}  // namespace protuner::util
