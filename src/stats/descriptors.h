// Univariate statistical descriptors used by the data-characterization
// step of ADA-HEALTH (paper §III, "Data characterization and
// transformation": model data distributions with statistical indices).
#ifndef ADAHEALTH_STATS_DESCRIPTORS_H_
#define ADAHEALTH_STATS_DESCRIPTORS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adahealth {
namespace stats {

/// Summary statistics of a numeric sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // Population variance.
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double skewness = 0.0;  // Fisher's moment coefficient; 0 for n < 2.
};

/// Computes Summary over `values`. Returns a zeroed Summary when empty.
Summary Summarize(const std::vector<double>& values);

/// Convenience overload for integer samples.
Summary Summarize(const std::vector<int64_t>& values);

/// Linear-interpolated quantile, q in [0, 1]. Requires non-empty input.
double Quantile(std::vector<double> values, double q);

/// Shannon entropy (bits) of a discrete distribution given by
/// non-negative `counts`. Zero counts are skipped; returns 0 when the
/// total is 0.
double Entropy(const std::vector<int64_t>& counts);

/// Normalized entropy: Entropy / log2(#nonzero buckets); in [0, 1].
/// Returns 1.0 when fewer than two non-empty buckets exist.
double NormalizedEntropy(const std::vector<int64_t>& counts);

/// Gini coefficient of the distribution of non-negative `counts`
/// (0 = perfectly even, -> 1 = concentrated on one bucket).
double GiniCoefficient(const std::vector<int64_t>& counts);

/// Fraction of total mass covered by the `top_fraction` most frequent
/// buckets (the paper's "top 20% of exam types cover 70% of rows"
/// curve). `top_fraction` in [0, 1].
double TopFractionCoverage(const std::vector<int64_t>& counts,
                           double top_fraction);

}  // namespace stats
}  // namespace adahealth

#endif  // ADAHEALTH_STATS_DESCRIPTORS_H_
