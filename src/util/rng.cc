#include "util/rng.h"

#include <cmath>

namespace protuner::util {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling: draw until the value falls in the largest multiple
  // of `range` below 2^64, which removes modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::normal() {
  // Marsaglia polar method; discard the second variate for call-site
  // reproducibility (a cached spare would make output depend on call order).
  for (;;) {
    const double u = uniform(-1.0, 1.0);
    const double v = uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::exponential() {
  // -log(1 - U) with U in [0,1) keeps the argument strictly positive.
  return -std::log1p(-uniform());
}

void Rng::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  // operator()'s state transition on locals, folded through a mask rather
  // than a branch: the state stays in registers and the jump polynomial's
  // random bits cost no mispredictions.  Every repetition context and every
  // simulated rank's stream pays one jump.
  std::uint64_t s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
  std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      const std::uint64_t take = 0 - ((word >> b) & 1);
      a0 ^= s0 & take;
      a1 ^= s1 & take;
      a2 ^= s2 & take;
      a3 ^= s3 & take;
      const std::uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = rotl(s3, 45);
    }
  }
  state_ = {a0, a1, a2, a3};
}

Rng Rng::split(std::uint64_t n) const {
  Rng out = *this;
  for (std::uint64_t i = 0; i <= n; ++i) out.jump();
  return out;
}

std::vector<Rng> Rng::split_streams(std::size_t count) const {
  std::vector<Rng> out;
  out.reserve(count);
  Rng stream = *this;
  for (std::size_t i = 0; i < count; ++i) {
    stream.jump();  // stream now equals split(i)
    out.push_back(stream);
  }
  return out;
}

}  // namespace protuner::util
