// Sample statistics for the service benchmark: medians and the tail
// rule every timing metric reports.
#ifndef SERVICEBENCH_STATS_H_
#define SERVICEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace servicebench {

/// Percentiles the tail rule considers, highest last.
inline constexpr double kTailPercentiles[] = {50.0, 75.0, 90.0,
                                              95.0, 99.0, 99.9};
/// A tail percentile must leave at least this many samples beyond it.
inline constexpr size_t kTailMinBeyond = 10;

/// The tail of a sample: the highest percentile in kTailPercentiles
/// whose nearest-rank position leaves at least kTailMinBeyond samples
/// ranked after it. With too few samples for even the median to
/// qualify, the median is reported with `supported` false.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t beyond = 0;  // Samples ranked after the percentile's rank.
  size_t samples = 0;
  bool supported = false;
};

/// Nearest-rank percentile (rank ceil(p/100 * n), 1-based) of an
/// ascending sample; 0 when empty.
double NearestRank(const std::vector<double>& sorted, double percentile);

/// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> samples);

Tail TailOf(std::vector<double> samples);

}  // namespace servicebench

#endif  // SERVICEBENCH_STATS_H_
