#include "stats/descriptors.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace adahealth {
namespace stats {

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;

  double sum = 0.0;
  summary.min = values[0];
  summary.max = values[0];
  for (double v : values) {
    sum += v;
    summary.min = std::min(summary.min, v);
    summary.max = std::max(summary.max, v);
  }
  summary.mean = sum / static_cast<double>(values.size());

  double m2 = 0.0;
  double m3 = 0.0;
  for (double v : values) {
    double d = v - summary.mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  const double n = static_cast<double>(values.size());
  summary.variance = m2 / n;
  summary.stddev = std::sqrt(summary.variance);
  if (values.size() >= 2 && summary.stddev > 0.0) {
    summary.skewness = (m3 / n) / (summary.stddev * summary.stddev *
                                   summary.stddev);
  }
  summary.median = Quantile(values, 0.5);
  return summary;
}

Summary Summarize(const std::vector<int64_t>& values) {
  std::vector<double> doubles(values.begin(), values.end());
  return Summarize(doubles);
}

double Quantile(std::vector<double> values, double q) {
  ADA_CHECK(!values.empty());
  ADA_CHECK_GE(q, 0.0);
  ADA_CHECK_LE(q, 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double position = q * static_cast<double>(values.size() - 1);
  size_t lower = static_cast<size_t>(std::floor(position));
  size_t upper = std::min(lower + 1, values.size() - 1);
  double weight = position - static_cast<double>(lower);
  return values[lower] * (1.0 - weight) + values[upper] * weight;
}

double Entropy(const std::vector<int64_t>& counts) {
  int64_t total = 0;
  for (int64_t c : counts) {
    ADA_CHECK_GE(c, 0);
    total += c;
  }
  if (total == 0) return 0.0;
  double entropy = 0.0;
  for (int64_t c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / static_cast<double>(total);
    entropy -= p * std::log2(p);
  }
  return entropy;
}

double NormalizedEntropy(const std::vector<int64_t>& counts) {
  size_t nonzero = 0;
  for (int64_t c : counts) {
    if (c > 0) ++nonzero;
  }
  if (nonzero < 2) return 1.0;
  return Entropy(counts) / std::log2(static_cast<double>(nonzero));
}

double GiniCoefficient(const std::vector<int64_t>& counts) {
  if (counts.empty()) return 0.0;
  std::vector<double> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  double weighted = 0.0;
  const double n = static_cast<double>(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  if (total <= 0.0) return 0.0;
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

double TopFractionCoverage(const std::vector<int64_t>& counts,
                           double top_fraction) {
  ADA_CHECK_GE(top_fraction, 0.0);
  ADA_CHECK_LE(top_fraction, 1.0);
  if (counts.empty()) return 0.0;
  std::vector<int64_t> sorted = counts;
  std::sort(sorted.begin(), sorted.end(), std::greater<int64_t>());
  int64_t total = 0;
  for (int64_t c : sorted) total += c;
  if (total == 0) return 0.0;
  size_t take = static_cast<size_t>(
      std::llround(top_fraction * static_cast<double>(sorted.size())));
  take = std::min(take, sorted.size());
  int64_t covered = 0;
  for (size_t i = 0; i < take; ++i) covered += sorted[i];
  return static_cast<double>(covered) / static_cast<double>(total);
}

}  // namespace stats
}  // namespace adahealth
