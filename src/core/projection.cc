#include "core/projection.h"

#include <algorithm>
#include <cassert>

namespace protuner::core {

void project(const ParameterSpace& space, const Point& center, const Point& x,
             Point& out) {
  assert(x.size() == space.size());
  assert(center.size() == space.size());
  out.resize(x.size());  // a no-op when out is x
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Parameter& p = space.param(i);
    double v = std::clamp(x[i], p.lower(), p.upper());
    if (!p.admissible(v)) {
      // v lies strictly between two consecutive admissible values l < v < u.
      // Round toward the transformation centre: if the centre is below v,
      // take l; if above, take u (paper §3.2.1).
      if (center[i] < v) {
        v = p.floor_value(v);
      } else if (center[i] > v) {
        v = p.ceil_value(v);
      } else {
        v = p.nearest(v);  // centre == v yet inadmissible: centre off-grid
      }
    }
    out[i] = v;
  }
}

}  // namespace protuner::core
