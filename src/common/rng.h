// Deterministic pseudo-random number generation.
//
// Every stochastic component of ADA-HEALTH takes an explicit 64-bit seed
// so that experiments are reproducible run-to-run. The generator is
// xoshiro256** seeded through SplitMix64 (the initialization recommended
// by the xoshiro authors), which is fast, high-quality, and portable.
#ifndef ADAHEALTH_COMMON_RNG_H_
#define ADAHEALTH_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace adahealth {
namespace common {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Exposed for seeding and hashing utilities.
uint64_t SplitMix64Next(uint64_t& state);

/// 64 bits from the OS entropy source. Only for keys that must not be
/// predictable from outside the process (a keyed digest's key); every
/// experiment stays on explicit seeds.
uint64_t EntropySeed();

/// Deterministic random number generator (xoshiro256**).
///
/// Not thread-safe; use one instance per thread.
class Rng {
 public:
  /// Seeds the generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed);

  /// Returns the next raw 64-bit output.
  uint64_t NextUint64();

  /// Returns an unbiased integer uniform in [0, bound). `bound` > 0.
  uint64_t UniformUint64(uint64_t bound);

  /// Returns an integer uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a double uniform in [0, 1) with 53 bits of randomness.
  double UniformDouble();

  /// Returns a double uniform in [lo, hi). Requires lo < hi.
  double UniformDouble(double lo, double hi);

  /// Returns a standard normal deviate (Box–Muller, cached pair).
  double Normal();

  /// Returns a normal deviate with the given mean and stddev.
  double Normal(double mean, double stddev);

  /// Returns a Poisson deviate with rate `lambda` (> 0). Uses Knuth's
  /// method for small lambda and normal approximation above 64.
  int64_t Poisson(double lambda);

  /// Returns a Gamma(shape, scale) deviate (Marsaglia–Tsang).
  double Gamma(double shape, double scale);

  /// Fisher–Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples an index from an unnormalized discrete distribution given by
  /// non-negative `weights` (at least one strictly positive).
  size_t Discrete(const std::vector<double>& weights);

  /// Returns `k` distinct indices sampled uniformly from [0, n).
  /// Requires k <= n. Result order is unspecified but deterministic.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_RNG_H_
