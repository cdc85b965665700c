#include "stats.h"

#include <algorithm>
#include <cmath>

namespace servicebench {

namespace {

size_t RankOf(size_t n, double percentile) {
  const double exact = percentile / 100.0 * static_cast<double>(n);
  // Guard against 99.9% of 1000 landing on 999.0000001.
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double percentile) {
  if (sorted.empty()) return 0.0;
  return sorted[RankOf(sorted.size(), percentile) - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double percentile : kTailPercentiles) {
    const size_t beyond = n - RankOf(n, percentile);
    if (beyond < kTailMinBeyond) break;
    tail.percentile = percentile;
    tail.beyond = beyond;
    tail.supported = true;
  }
  if (!tail.supported) tail.beyond = n - RankOf(n, tail.percentile);
  tail.value = NearestRank(samples, tail.percentile);
  return tail;
}

}  // namespace servicebench
