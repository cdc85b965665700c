#include "common/rng.h"

#include <cmath>
#include <random>

namespace adahealth {
namespace common {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64Next(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t EntropySeed() {
  std::random_device device;
  return (static_cast<uint64_t>(device()) << 32) ^ device();
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64Next(sm);
  // xoshiro must not start from the all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

uint64_t Rng::NextUint64() {
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

uint64_t Rng::UniformUint64(uint64_t bound) {
  ADA_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  ADA_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // Full range.
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  ADA_CHECK_LT(lo, hi);
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller transform on two uniforms, avoiding log(0).
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  double u2 = UniformDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

int64_t Rng::Poisson(double lambda) {
  ADA_CHECK_GT(lambda, 0.0);
  if (lambda > 64.0) {
    // Normal approximation with continuity correction; adequate for the
    // workload-generation use cases in this project.
    double value = std::round(Normal(lambda, std::sqrt(lambda)));
    return value < 0.0 ? 0 : static_cast<int64_t>(value);
  }
  const double limit = std::exp(-lambda);
  int64_t count = -1;
  double product = 1.0;
  do {
    ++count;
    product *= UniformDouble();
  } while (product > limit);
  return count;
}

double Rng::Gamma(double shape, double scale) {
  ADA_CHECK_GT(shape, 0.0);
  ADA_CHECK_GT(scale, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and correct (Marsaglia–Tsang section 4.4).
    double u = 0.0;
    do {
      u = UniformDouble();
    } while (u <= 0.0);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = UniformDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  ADA_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    ADA_CHECK_GE(w, 0.0);
    total += w;
  }
  ADA_CHECK_GT(total, 0.0);
  double target = UniformDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;  // Floating-point slack on the last bucket.
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  ADA_CHECK_LE(k, n);
  // Partial Fisher–Yates over an index array: O(n) memory, O(n + k) time.
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformUint64(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace common
}  // namespace adahealth
