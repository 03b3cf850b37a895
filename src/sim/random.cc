#include "src/sim/random.h"

#include <cmath>

namespace nadino {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t lo, uint64_t hi) {
  const uint64_t span = hi - lo + 1;
  if (span == 0) {
    return NextU64();  // Full 64-bit range requested.
  }
  return lo + NextU64() % span;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::Exponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

uint64_t Rng::Poisson(double mean) {
  if (!(mean > 0.0)) {
    return 0;
  }
  // Knuth's product method, chunked: Poisson(a + b) = Poisson(a) + Poisson(b)
  // for independent draws, so means beyond the exp() underflow range split
  // into 32-mean chunks (e^-32 is comfortably representable).
  uint64_t count = 0;
  constexpr double kChunk = 32.0;
  while (mean > 0.0) {
    const double lambda = mean > kChunk ? kChunk : mean;
    mean -= lambda;
    const double limit = std::exp(-lambda);
    double product = NextDouble();
    while (product >= limit) {
      ++count;
      product *= NextDouble();
    }
  }
  return count;
}

bool Rng::Chance(double p) { return NextDouble() < p; }

}  // namespace nadino
