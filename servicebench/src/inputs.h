// Seeded inputs of the three workloads. Everything the program receives
// is generated here from the workload seed; the same seed gives the
// same bodies, logs and batches.
#ifndef SERVICEBENCH_INPUTS_H_
#define SERVICEBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "dataset/exam_log.h"

namespace servicebench {

using adahealth::common::Json;
using adahealth::dataset::RawExamRecord;

/// One cold_sweep job: a synthetic cohort analysed with the paper's
/// session options.
struct ColdSpec {
  int32_t patients = 0;
  int32_t exam_types = 0;
  int32_t profiles = 0;
  uint64_t cohort_seed = 0;
  std::string dataset_id;
};

/// Number of job-shape strata.
size_t ColdStrata();

/// `pairs` pairs of distinct specs; spec 2m + c is client c's m-th job.
/// Both members of a pair share a stratum, so the two clients' jobs
/// running side by side have the same shape. Each cycle of
/// ColdStrata() pairs visits every stratum once in a seeded order, with
/// the patient count drawn around the stratum's centre and the cohort
/// itself seeded: every run sees the same mix of job sizes.
std::vector<ColdSpec> MakeColdSpecs(uint64_t seed, size_t pairs);
Json::Object ColdSubmitBody(const ColdSpec& spec);

/// One cached CSV log: the submit body carries the whole records CSV.
struct HotLog {
  std::string dataset_id;
  int32_t patients = 0;
  Json::Object body;
};

/// Decides whether generated log `index` is kept (see MakeHotSet).
using HotLogFilter = std::function<bool(size_t index, const HotLog& log)>;

/// `count` CSV logs with patients spread evenly over [min, max] (one
/// seeded draw per equal-width band; min == max fixes every size) and
/// light session options. With a filter, a band's log is drawn again
/// until the filter keeps it.
std::vector<HotLog> MakeHotSet(uint64_t seed, const std::string& prefix,
                               size_t count, int32_t min_patients,
                               int32_t max_patients,
                               const HotLogFilter& keep = nullptr);

/// A cohort's records in arrival (day) order: an initial load and the
/// batches streamed after it.
struct CohortStream {
  std::string cohort;
  std::vector<RawExamRecord> initial;
  std::vector<std::vector<RawExamRecord>> batches;
};

CohortStream MakeCohortStream(const std::string& cohort, uint64_t seed,
                              int32_t patients, double initial_fraction,
                              size_t batch_records);

Json::Object IngestBody(const std::string& cohort,
                        const std::vector<RawExamRecord>& records,
                        int64_t expected_generation);
/// Analyse the cohort's current generation (delta job options).
Json::Object CohortSubmitBody(const std::string& cohort);
Json::Object ResultBody(int64_t job_id);
Json::Object StatusBody(int64_t job_id);

}  // namespace servicebench

#endif  // SERVICEBENCH_INPUTS_H_
