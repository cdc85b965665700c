#include "checks.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "core/report.h"
#include "kdb/database.h"
#include "service/cohort_store.h"
#include "service/fingerprint.h"
#include "service/protocol.h"

namespace servicebench {

namespace adh = adahealth;
using adh::common::Status;
using adh::common::StatusOr;
using adh::common::StrFormat;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

uint64_t Digest(const std::string& bytes) {
  return adh::service::Fnv1a().MixString(bytes).digest();
}

StatusOr<DirectRun> RunDirect(const adh::service::JobRequest& request,
                              Tracer* tracer, int64_t job) {
  DirectRun run;
  adh::kdb::Database db;
  adh::core::AnalysisSession session(&db);
  const adh::dataset::Taxonomy* taxonomy =
      request.taxonomy.has_value() ? &*request.taxonomy : nullptr;
  auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(tracer, "session.run", "core", 0, job);
    auto result = session.Run(request.log, taxonomy, request.options);
    if (!result.ok()) return result.status();
    run.result = std::move(result).value();
  }
  run.run_seconds = SecondsSince(start);
  start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(tracer, "stage.render", "core", 0, job);
    run.report = adh::core::RenderSessionReport(run.result,
                                                request.options.dataset_id);
  }
  run.render_seconds = SecondsSince(start);
  return run;
}

Status CheckReport(const std::string& served, const DirectRun& direct,
                   const std::string& dataset_id) {
  if (served != direct.report) {
    return adh::common::InternalError(StrFormat(
        "served report of '%s' differs from a direct AnalysisSession::Run "
        "(%zu vs %zu bytes)",
        dataset_id.c_str(), served.size(), direct.report.size()));
  }
  return adh::common::OkStatus();
}

Status CheckResubmits(const std::vector<ResubmitRecord>& records,
                      const std::vector<uint64_t>& expected_digests,
                      int64_t evictions) {
  for (size_t i = 0; i < records.size(); ++i) {
    const ResubmitRecord& record = records[i];
    if (!record.cache_hit) {
      return adh::common::InternalError(
          StrFormat("resubmit %zu of log %zu was not a cache hit", i,
                    record.log));
    }
    if (record.log >= expected_digests.size() ||
        record.digest != expected_digests[record.log]) {
      return adh::common::InternalError(
          StrFormat("resubmit %zu of log %zu served a report that differs "
                    "from the log's first report",
                    i, record.log));
    }
  }
  if (evictions != 0) {
    return adh::common::InternalError(
        StrFormat("result caches evicted %lld entries",
                  static_cast<long long>(evictions)));
  }
  return adh::common::OkStatus();
}

Status CheckStreamStep(const StreamStep& step) {
  if (step.generation != step.expected_generation ||
      step.total_records != step.expected_total) {
    return adh::common::InternalError(StrFormat(
        "ingest into '%s': generation %lld, total_records %lld; expected "
        "%lld, %lld",
        step.cohort.c_str(), static_cast<long long>(step.generation),
        static_cast<long long>(step.total_records),
        static_cast<long long>(step.expected_generation),
        static_cast<long long>(step.expected_total)));
  }
  if (!step.analysed) return adh::common::OkStatus();
  const std::string prefix =
      step.cohort + "@" + std::to_string(step.expected_generation) + "/";
  for (const std::string* fingerprint :
       {&step.submit_fingerprint, &step.result_fingerprint}) {
    if (fingerprint->rfind(prefix, 0) != 0) {
      return adh::common::InternalError(
          StrFormat("fingerprint '%s' does not start with '%s'",
                    fingerprint->c_str(), prefix.c_str()));
    }
  }
  return adh::common::OkStatus();
}

StatusOr<MirrorRun> RunMirror(const CohortStream& stream, size_t generations,
                              const Json::Object& submit_body,
                              size_t sample_generation,
                              const std::string& directory, Tracer* tracer) {
  MirrorRun mirror;
  std::filesystem::create_directories(directory);
  adh::service::CohortStore store(adh::service::CohortStoreOptions{directory});
  const Json body(submit_body);
  for (size_t generation = 1; generation <= generations; ++generation) {
    const std::vector<RawExamRecord>& batch =
        generation == 1 ? stream.initial : stream.batches.at(generation - 2);
    auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan span(tracer, "cohort_store.ingest", "cohort_store");
      ADA_RETURN_IF_ERROR(
          store.Ingest(stream.cohort, batch,
                       static_cast<int64_t>(generation) - 1)
              .status());
    }
    mirror.ingest_ms.push_back(1e3 * SecondsSince(start));
    start = std::chrono::steady_clock::now();
    StatusOr<adh::service::JobRequest> job = adh::common::InternalError("");
    {
      ScopedSpan span(tracer, "cohort_store.build_job", "cohort_store");
      job = store.BuildCohortJob(stream.cohort);
    }
    mirror.build_job_ms.push_back(1e3 * SecondsSince(start));
    if (!job.ok()) return job.status();
    ADA_RETURN_IF_ERROR(adh::service::ApplyJobOptionsFromBody(body, *job));
    if (generation == sample_generation) mirror.sample_job = *job;
    ADA_ASSIGN_OR_RETURN(DirectRun run, RunDirect(*job));
    store.OnAnalysisCommitted(stream.cohort, job->cohort_generation,
                              static_cast<int64_t>(job->log.num_records()),
                              run.result);
    mirror.reports.push_back(std::move(run.report));
  }
  return mirror;
}

Status CheckMirror(const std::vector<std::string>& served,
                   const std::vector<std::string>& mirror) {
  if (served.size() != mirror.size()) {
    return adh::common::InternalError(
        StrFormat("mirror analysed %zu generations, service served %zu",
                  mirror.size(), served.size()));
  }
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i] != mirror[i]) {
      return adh::common::InternalError(StrFormat(
          "delta report of generation %zu differs from the in-process "
          "mirror (%zu vs %zu bytes)",
          i + 1, served[i].size(), mirror[i].size()));
    }
  }
  return adh::common::OkStatus();
}

}  // namespace servicebench
