// Output checks. Each asserts only what the program guarantees:
// reports byte-identical to a direct AnalysisSession::Run, cache hits
// serving the first report, and streaming replies carrying exactly
// the generation and record count the closed loop implies. They run
// on recorded replies after the timed window.
#ifndef SERVICEBENCH_CHECKS_H_
#define SERVICEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "core/session.h"
#include "inputs.h"
#include "service/scheduler.h"
#include "trace.h"

namespace servicebench {

uint64_t Digest(const std::string& bytes);

/// A session run the way a shard's scheduler runs one: a private K-DB,
/// AnalysisSession::Run, RenderSessionReport.
struct DirectRun {
  adahealth::core::SessionResult result;
  std::string report;
  double run_seconds = 0.0;     // AnalysisSession::Run wall time.
  double render_seconds = 0.0;  // RenderSessionReport wall time.
};
[[nodiscard]] adahealth::common::StatusOr<DirectRun> RunDirect(
    const adahealth::service::JobRequest& request, Tracer* tracer = nullptr,
    int64_t job = 0);

/// cold_sweep and cache_hot (and the stream mirror's sample): the
/// served report must equal the direct run's, byte for byte.
[[nodiscard]] adahealth::common::Status CheckReport(const std::string& served,
                                                    const DirectRun& direct,
                                                    const std::string& dataset_id);

/// One timed cache_hot resubmit.
struct ResubmitRecord {
  size_t log = 0;
  bool cache_hit = false;
  uint64_t digest = 0;
};
/// Every resubmit must be a cache hit whose report digest equals its
/// log's checked first report, and the caches must not have evicted.
[[nodiscard]] adahealth::common::Status CheckResubmits(
    const std::vector<ResubmitRecord>& records,
    const std::vector<uint64_t>& expected_digests, int64_t evictions);

/// One ingest (+ for analysed cohorts, submit and result) of
/// stream_ingest, with what the closed loop expects.
struct StreamStep {
  std::string cohort;
  int64_t expected_generation = 0;
  int64_t expected_total = 0;
  int64_t generation = -1;  // From the ingest reply.
  int64_t total_records = -1;
  bool analysed = false;
  std::string submit_fingerprint;
  std::string result_fingerprint;
  std::string report;
};
/// generation and total_records must equal the expected values; for
/// analysed steps both fingerprints must start with
/// "<cohort>@<generation>/".
[[nodiscard]] adahealth::common::Status CheckStreamStep(const StreamStep& step);

/// The in-process mirror of one analysed cohort: a CohortStore fed the
/// same initial load and batches, each generation analysed in order
/// with BuildCohortJob, ApplyJobOptionsFromBody, AnalysisSession::Run
/// and OnAnalysisCommitted — what the shard does for that cohort. The
/// store persists to `directory`, as a shard's does.
struct MirrorRun {
  std::vector<std::string> reports;  // reports[g - 1] for generation g.
  std::vector<double> ingest_ms;
  std::vector<double> build_job_ms;
  /// The job built for `sample_generation` (empty log if not reached).
  adahealth::service::JobRequest sample_job;
};
[[nodiscard]] adahealth::common::StatusOr<MirrorRun> RunMirror(
    const CohortStream& stream, size_t generations,
    const Json::Object& submit_body, size_t sample_generation,
    const std::string& directory, Tracer* tracer);

/// Served delta reports must be byte-identical to the mirror's, in
/// generation order.
[[nodiscard]] adahealth::common::Status CheckMirror(
    const std::vector<std::string>& served,
    const std::vector<std::string>& mirror);

}  // namespace servicebench

#endif  // SERVICEBENCH_CHECKS_H_
