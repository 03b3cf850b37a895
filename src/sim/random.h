// Seeded pseudo-random number generation for workload synthesis.
//
// Uses xoshiro256** (public domain, Blackman & Vigna) seeded through
// SplitMix64. A small local implementation keeps experiments deterministic
// across standard-library versions, unlike std::mt19937 + std::*_distribution
// whose outputs are not pinned by the standard.

#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cstdint>

namespace nadino {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t UniformInt(uint64_t lo, uint64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  // Poisson-distributed count with the given mean (>= 0). Deterministic
  // across platforms (no std::poisson_distribution); large means are split
  // into bounded chunks so exp(-mean) never underflows. Cost is O(mean),
  // which open-loop admission amortizes over the events it schedules.
  uint64_t Poisson(double mean);

  // Bernoulli trial: true with probability p.
  bool Chance(double p);

 private:
  uint64_t s_[4];
};

}  // namespace nadino

#endif  // SRC_SIM_RANDOM_H_
