// The analysis service's newline-delimited-JSON wire protocol.
//
// Every request and every response is exactly one JSON object on one
// line. Requests carry a "verb"; responses carry "ok": true plus
// verb-specific fields, or "ok": false plus an "error" object that
// round-trips a common::Status:
//
//   -> {"verb":"submit","synthetic":{"patients":400,"seed":7}}
//   <- {"ok":true,"job_id":1,"state":"queued","fingerprint":"9f..."}
//   -> {"verb":"result","job_id":1,"wait_millis":60000}
//   <- {"ok":true,"state":"done","cache_hit":false,"summary":"..."}
//   -> {"verb":"status","job_id":99}
//   <- {"ok":false,"error":{"code":"NOT_FOUND","message":"no job..."}}
//
// Verbs: submit, status, result, cancel, stats, ping, health,
// shutdown, ingest — plus the cluster-internal promote and replicate
// verbs (see service/replication.h and service/router.h).
// Datasets are submitted either inline as CSV ("csv"), as a synthetic
// cohort spec ("synthetic") evaluated server-side — the latter keeps
// demo and smoke-test payloads tiny — or, for streaming cohorts, by
// naming an ingested "cohort" (service/cohort_store.h):
//
//   -> {"verb":"ingest","cohort":"icu","records":[
//        {"patient":0,"exam_type":"glucose","day":3}, ...]}
//   <- {"ok":true,"cohort":"icu","generation":2,"total_records":128}
//   -> {"verb":"submit","cohort":"icu"}
//   <- {"ok":true,"job_id":7,"fingerprint":"icu@2/9f..."}
//
// An ingest body may carry "expected_generation": the batch then
// commits only if the cohort is currently at exactly that generation
// (0 = not created yet), else FAILED_PRECONDITION with nothing
// applied — the replay guard that makes retrying a timed-out batch
// safe (ingest, unlike submit, is not idempotent; the router forwards
// it at most once).
#ifndef ADAHEALTH_SERVICE_PROTOCOL_H_
#define ADAHEALTH_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "dataset/exam_log.h"
#include "service/scheduler.h"

namespace adahealth {
namespace service {

/// One parsed request line.
struct Request {
  std::string verb;
  common::Json body;  // The whole request object (verb included).
};

/// Parses one request line. INVALID_ARGUMENT on malformed JSON, a
/// non-object, or a missing/empty "verb".
[[nodiscard]] common::StatusOr<Request> ParseRequest(const std::string& line);

/// Serializes a success response: `fields` plus "ok": true, one line,
/// '\n'-terminated.
[[nodiscard]] std::string OkResponse(common::Json::Object fields);

/// Serializes an error response carrying `status` (code name and
/// message), one line, '\n'-terminated.
[[nodiscard]] std::string ErrorResponse(const common::Status& status);

/// Same, with top-level context fields next to "ok"/"error" (e.g. the
/// result verb's timeout error carries job_id and the job's current
/// state so the client can tell "still running" from "gone").
[[nodiscard]] std::string ErrorResponse(const common::Status& status,
                                        common::Json::Object extra_fields);

/// Client side: parses a response line. Returns the response object
/// when "ok" is true; reconstructs and returns the carried Status when
/// "ok" is false; INVALID_ARGUMENT on malformed responses.
[[nodiscard]] common::StatusOr<common::Json> ParseResponse(
    const std::string& line);

/// Wire caps on a job's optimizer work: `options.restarts` and the
/// length of `options.candidate_ks`. A running job cannot be cancelled,
/// so a larger value would hold a worker for as long as it asked for;
/// over a cap answers INVALID_ARGUMENT naming the field.
inline constexpr int32_t kMaxRestarts = 32;
inline constexpr size_t kMaxCandidateKs = 64;

/// Builds the JobRequest described by a submit-request body: the
/// dataset from "csv" (inline records CSV) or "synthetic" (cohort spec:
/// patients, exam_types, profiles, mean_records, days, seed), plus the
/// optional knobs dataset_id, priority, deadline_millis, use_taxonomy
/// (synthetic only, default true) and an "options" object with the
/// supported session-option subset (candidate_ks, cv_folds, seed,
/// max_selected_items, restarts).
[[nodiscard]] common::StatusOr<JobRequest> BuildJobRequest(
    const common::Json& body);

/// Applies the dataset-independent submit knobs (dataset_id, "options"
/// object, priority, deadline_millis) from `body` onto `request`.
/// BuildJobRequest calls this after materializing the dataset; the
/// server reuses it for cohort submissions, whose dataset comes from
/// the CohortStore instead of the request body.
[[nodiscard]] common::Status ApplyJobOptionsFromBody(const common::Json& body,
                                                     JobRequest& request);

/// Parses an ingest-request "records" array (objects with integer
/// "patient", string "exam_type", optional integer "day") into raw
/// records. INVALID_ARGUMENT on a missing/empty array or malformed
/// rows; record-level validation (negative ids, empty names) is the
/// CohortStore's.
[[nodiscard]] common::StatusOr<std::vector<dataset::RawExamRecord>>
ParseIngestRecords(const common::Json& body);

/// Renders a job snapshot as the wire fields shared by the status and
/// result verbs. `include_artifacts` adds summary/report (the result
/// verb); status replies stay small.
[[nodiscard]] common::Json::Object SnapshotFields(const JobSnapshot& snapshot,
                                                  bool include_artifacts);

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_PROTOCOL_H_
