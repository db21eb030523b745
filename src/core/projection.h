// The projection operator Pi (paper §3.2.1).
//
// Every simplex transformation (reflection, expansion, shrink) can produce
// points outside the admissible region; Pi maps them back:
//   * boundary constraints: clamp to [lower, upper];
//   * discreteness: round to the lower or higher admissible value,
//     whichever lies toward the transformation centre v_k^0.
//
// Rounding *toward the centre* (rather than to nearest) is what guarantees
// that a finite number of consecutive shrinks drives every discrete
// coordinate onto the centre exactly — the property the stopping criterion
// (§3.2.2) relies on.
#pragma once

#include "core/parameter_space.h"
#include "core/types.h"

namespace protuner::core {

/// Projects `x` into the admissible region of `space`, using `center` (the
/// transformation centre v_k^0) to break discrete-rounding ties.  Writes
/// into `out`, reusing its capacity; `out` may be `x` itself.
void project(const ParameterSpace& space, const Point& center, const Point& x,
             Point& out);

inline Point project(const ParameterSpace& space, const Point& center,
                     const Point& x) {
  Point out;
  project(space, center, x, out);
  return out;
}

}  // namespace protuner::core
