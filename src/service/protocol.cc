#include "service/protocol.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

namespace {

// Field readers with defaults. The wire format is permissive about
// int-vs-double (clients hand-write these payloads), so numeric
// accessors accept either.
StatusOr<int64_t> ReadInt(const Json& body, std::string_view key,
                          int64_t fallback) {
  const Json* field = body.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_int()) {
    return common::InvalidArgumentError(
        common::StrFormat("field '%s' must be an integer",
                          std::string(key).c_str()));
  }
  return field->AsInt();
}

StatusOr<double> ReadDouble(const Json& body, std::string_view key,
                            double fallback) {
  const Json* field = body.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_number()) {
    return common::InvalidArgumentError(
        common::StrFormat("field '%s' must be a number",
                          std::string(key).c_str()));
  }
  return field->AsDouble();
}

StatusOr<bool> ReadBool(const Json& body, std::string_view key,
                        bool fallback) {
  const Json* field = body.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_bool()) {
    return common::InvalidArgumentError(
        common::StrFormat("field '%s' must be a boolean",
                          std::string(key).c_str()));
  }
  return field->AsBool();
}

StatusOr<std::string> ReadString(const Json& body, std::string_view key,
                                 std::string fallback) {
  const Json* field = body.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_string()) {
    return common::InvalidArgumentError(
        common::StrFormat("field '%s' must be a string",
                          std::string(key).c_str()));
  }
  return field->AsString();
}

// Applies the supported session-option subset from an "options" object.
Status ApplySessionOptions(const Json& options_json,
                           core::SessionOptions& options) {
  if (!options_json.is_object()) {
    return common::InvalidArgumentError("'options' must be an object");
  }
  if (const Json* ks = options_json.Find("candidate_ks"); ks != nullptr) {
    if (!ks->is_array() || ks->AsArray().empty()) {
      return common::InvalidArgumentError(
          "'candidate_ks' must be a non-empty array of integers");
    }
    std::vector<int32_t> candidate_ks;
    for (const Json& k : ks->AsArray()) {
      if (!k.is_int()) {
        return common::InvalidArgumentError(
            "'candidate_ks' must be a non-empty array of integers");
      }
      candidate_ks.push_back(static_cast<int32_t>(k.AsInt()));
    }
    options.optimizer.candidate_ks = std::move(candidate_ks);
  }
  ADA_ASSIGN_OR_RETURN(
      int64_t cv_folds,
      ReadInt(options_json, "cv_folds", options.optimizer.cv_folds));
  options.optimizer.cv_folds = static_cast<int32_t>(cv_folds);
  ADA_ASSIGN_OR_RETURN(
      int64_t restarts,
      ReadInt(options_json, "restarts", options.optimizer.restarts));
  options.optimizer.restarts = static_cast<int32_t>(restarts);
  ADA_ASSIGN_OR_RETURN(
      int64_t seed,
      ReadInt(options_json, "seed",
              static_cast<int64_t>(options.optimizer.seed)));
  options.optimizer.seed = static_cast<uint64_t>(seed);
  ADA_ASSIGN_OR_RETURN(
      int64_t max_selected,
      ReadInt(options_json, "max_selected_items",
              static_cast<int64_t>(options.max_selected_items)));
  if (max_selected <= 0) {
    return common::InvalidArgumentError("'max_selected_items' must be > 0");
  }
  options.max_selected_items = static_cast<size_t>(max_selected);
  ADA_ASSIGN_OR_RETURN(
      double sample_fraction,
      ReadDouble(options_json, "sample_fraction",
                 options.transform.sample_fraction));
  options.transform.sample_fraction = sample_fraction;
  return common::OkStatus();
}

}  // namespace

StatusOr<Request> ParseRequest(const std::string& line) {
  ADA_ASSIGN_OR_RETURN(Json body, Json::Parse(line));
  if (!body.is_object()) {
    return common::InvalidArgumentError("request must be a JSON object");
  }
  ADA_ASSIGN_OR_RETURN(std::string verb, ReadString(body, "verb", ""));
  if (verb.empty()) {
    return common::InvalidArgumentError(
        "request must carry a non-empty 'verb'");
  }
  Request request;
  request.verb = std::move(verb);
  request.body = std::move(body);
  return request;
}

std::string OkResponse(Json::Object fields) {
  fields["ok"] = true;
  return Json(std::move(fields)).Dump() + "\n";
}

std::string ErrorResponse(const Status& status) {
  return ErrorResponse(status, Json::Object{});
}

std::string ErrorResponse(const Status& status,
                          Json::Object extra_fields) {
  Json::Object error;
  error["code"] = std::string(common::StatusCodeName(status.code()));
  error["message"] = status.message();
  Json::Object fields = std::move(extra_fields);
  fields["ok"] = false;
  fields["error"] = Json(std::move(error));
  return Json(std::move(fields)).Dump() + "\n";
}

StatusOr<Json> ParseResponse(const std::string& line) {
  ADA_ASSIGN_OR_RETURN(Json response, Json::Parse(line));
  if (!response.is_object()) {
    return common::InvalidArgumentError("response must be a JSON object");
  }
  const Json* ok = response.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return common::InvalidArgumentError(
        "response must carry a boolean 'ok'");
  }
  if (ok->AsBool()) return response;
  const Json* error = response.Find("error");
  if (error == nullptr || !error->is_object()) {
    return common::InvalidArgumentError(
        "error response must carry an 'error' object");
  }
  ADA_ASSIGN_OR_RETURN(std::string code_name,
                       ReadString(*error, "code", "UNKNOWN"));
  ADA_ASSIGN_OR_RETURN(std::string message, ReadString(*error, "message", ""));
  auto code = common::StatusCodeFromName(code_name);
  // An unrecognized code name still surfaces the server's message.
  if (!code.ok()) return Status(common::StatusCode::kInternal, message);
  return Status(code.value(), std::move(message));
}

StatusOr<JobRequest> BuildJobRequest(const Json& body) {
  JobRequest request;
  const Json* csv = body.Find("csv");
  const Json* synthetic = body.Find("synthetic");
  if ((csv != nullptr) == (synthetic != nullptr)) {
    return common::InvalidArgumentError(
        "submit requires exactly one of 'csv' or 'synthetic'");
  }
  if (csv != nullptr) {
    if (!csv->is_string()) {
      return common::InvalidArgumentError("'csv' must be a string");
    }
    ADA_ASSIGN_OR_RETURN(request.log, dataset::ExamLog::FromCsv(csv->AsString()));
  } else {
    if (!synthetic->is_object()) {
      return common::InvalidArgumentError("'synthetic' must be an object");
    }
    dataset::CohortConfig config = dataset::TestScaleConfig();
    ADA_ASSIGN_OR_RETURN(int64_t patients,
                         ReadInt(*synthetic, "patients", config.num_patients));
    config.num_patients = static_cast<int32_t>(patients);
    ADA_ASSIGN_OR_RETURN(
        int64_t exam_types,
        ReadInt(*synthetic, "exam_types", config.num_exam_types));
    config.num_exam_types = static_cast<int32_t>(exam_types);
    ADA_ASSIGN_OR_RETURN(int64_t profiles,
                         ReadInt(*synthetic, "profiles", config.num_profiles));
    config.num_profiles = static_cast<int32_t>(profiles);
    ADA_ASSIGN_OR_RETURN(
        double mean_records,
        ReadDouble(*synthetic, "mean_records",
                   config.mean_records_per_patient));
    config.mean_records_per_patient = mean_records;
    ADA_ASSIGN_OR_RETURN(int64_t days,
                         ReadInt(*synthetic, "days", config.num_days));
    config.num_days = static_cast<int32_t>(days);
    ADA_ASSIGN_OR_RETURN(
        int64_t seed,
        ReadInt(*synthetic, "seed", static_cast<int64_t>(config.seed)));
    config.seed = static_cast<uint64_t>(seed);
    ADA_ASSIGN_OR_RETURN(dataset::Cohort cohort,
                         dataset::SyntheticCohortGenerator(config).Generate());
    request.log = std::move(cohort.log);
    ADA_ASSIGN_OR_RETURN(bool use_taxonomy,
                         ReadBool(body, "use_taxonomy", true));
    if (use_taxonomy) request.taxonomy = std::move(cohort.taxonomy);
  }
  ADA_RETURN_IF_ERROR(ApplyJobOptionsFromBody(body, request));
  return request;
}

Status ApplyJobOptionsFromBody(const Json& body, JobRequest& request) {
  ADA_ASSIGN_OR_RETURN(
      request.options.dataset_id,
      ReadString(body, "dataset_id", request.options.dataset_id));
  if (const Json* options_json = body.Find("options");
      options_json != nullptr) {
    ADA_RETURN_IF_ERROR(ApplySessionOptions(*options_json, request.options));
  }
  ADA_ASSIGN_OR_RETURN(int64_t priority, ReadInt(body, "priority", 0));
  request.priority = static_cast<int32_t>(priority);
  ADA_ASSIGN_OR_RETURN(request.deadline_millis,
                       ReadDouble(body, "deadline_millis", 0.0));
  return common::OkStatus();
}

StatusOr<std::vector<dataset::RawExamRecord>> ParseIngestRecords(
    const Json& body) {
  const Json* records = body.Find("records");
  if (records == nullptr || !records->is_array() ||
      records->AsArray().empty()) {
    return common::InvalidArgumentError(
        "ingest requires a non-empty 'records' array");
  }
  std::vector<dataset::RawExamRecord> rows;
  rows.reserve(records->AsArray().size());
  for (const Json& record : records->AsArray()) {
    if (!record.is_object()) {
      return common::InvalidArgumentError(
          "each ingest record must be an object");
    }
    dataset::RawExamRecord row;
    ADA_ASSIGN_OR_RETURN(int64_t patient, ReadInt(record, "patient", -1));
    ADA_ASSIGN_OR_RETURN(row.patient, common::CheckedInt32(patient, "patient"));
    ADA_ASSIGN_OR_RETURN(row.exam_type, ReadString(record, "exam_type", ""));
    ADA_ASSIGN_OR_RETURN(int64_t day, ReadInt(record, "day", 0));
    ADA_ASSIGN_OR_RETURN(row.day, common::CheckedInt32(day, "day"));
    rows.push_back(std::move(row));
  }
  return rows;
}

Json::Object SnapshotFields(const JobSnapshot& snapshot,
                            bool include_artifacts) {
  Json::Object fields;
  fields["job_id"] = snapshot.id;
  fields["state"] = std::string(JobStateName(snapshot.state));
  fields["dataset_id"] = snapshot.dataset_id;
  fields["fingerprint"] = snapshot.fingerprint;
  fields["priority"] = static_cast<int64_t>(snapshot.priority);
  fields["cache_hit"] = snapshot.cache_hit;
  fields["wait_seconds"] = snapshot.wait_seconds;
  fields["run_seconds"] = snapshot.run_seconds;
  fields["knowledge_items"] = snapshot.knowledge_items;
  if (!snapshot.status.ok()) {
    fields["status_code"] =
        std::string(common::StatusCodeName(snapshot.status.code()));
    fields["status_message"] = snapshot.status.message();
  }
  if (include_artifacts) {
    fields["summary"] = snapshot.summary;
    fields["report"] = snapshot.report;
  }
  return fields;
}

}  // namespace service
}  // namespace adahealth
