// The three workloads and the run that drives them: repeated set-up,
// the timed closed loops, output checks and, in traced runs, side
// probes and the per-layer breakdown.
#ifndef SERVICEBENCH_WORKLOADS_H_
#define SERVICEBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace servicebench {

inline const char* const kWorkloads[] = {"cold_sweep", "cache_hot",
                                         "stream_ingest"};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for cohort stores (removed at the end).
  std::string work_dir;
};

/// What the run prints and records.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::map<std::string, double> metrics;
  /// Units of `metrics`, by name.
  std::map<std::string, std::string> units;
  std::vector<std::string> check_failures;
  /// Sample counts, tail percentiles, counter deltas and run facts.
  adahealth::common::Json::Object details;
  /// Traced runs only: every span, one JSON object per line.
  std::string spans_jsonl;
};

[[nodiscard]] adahealth::common::StatusOr<RunReport> RunBenchmark(
    const RunConfig& config);

}  // namespace servicebench

#endif  // SERVICEBENCH_WORKLOADS_H_
