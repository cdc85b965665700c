// service_bench: drives one workload of the ADA-HEALTH service
// benchmark at a given seed and prints its metrics.
//
//   service_bench --workload cold_sweep|cache_hot|stream_ingest
//                 --seed N --seconds S --trace 0|1
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics untraced, per-layer
// metrics traced). The exit code is non-zero when an output check
// fails or the run cannot complete. Run facts, tails and sample counts
// go to .bench_out/run-<workload>-s<seed>-t<trace>.json; traced runs
// also write their spans to .bench_out/spans-<workload>-s<seed>.jsonl.
// Cohort stores live under .bench_work/ while the run lasts.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "workloads.h"

namespace {

namespace adh = adahealth;
using adh::common::Json;

constexpr double kMaxWindowSeconds = 60.0;

int Usage(const char* message) {
  std::fprintf(stderr,
               "service_bench: %s\nusage: service_bench --workload "
               "cold_sweep|cache_hot|stream_ingest --seed N --seconds S "
               "--trace 0|1\n",
               message);
  return 2;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  return adh::common::StrFormat("%.17g", value);
}

std::string ResultLine(const servicebench::RunReport& report) {
  std::string line = adh::common::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
      report.correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + Number(value) + ", \"unit\": \"" +
            report.units.at(name) + "\"}";
  }
  return line + "}}";
}

bool WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  servicebench::RunConfig config;
  const std::string out_dir = ".bench_out";
  const std::string work_root = ".bench_work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0) ||
          config.seconds > kMaxWindowSeconds) {
        return Usage("--seconds takes a number in (0, 60]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const char* name : servicebench::kWorkloads) known |= config.workload == name;
  if (!known) return Usage(("unknown workload " + config.workload).c_str());

  adh::common::SetLogThreshold(adh::common::LogLevel::kWarning);
  const std::string tag = adh::common::StrFormat(
      "%s-s%llu", config.workload.c_str(),
      static_cast<unsigned long long>(config.seed));
  config.work_dir = (std::filesystem::path(work_root) /
                     (tag + "-p" + std::to_string(::getpid())))
                        .string();

  auto report = servicebench::RunBenchmark(config);
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);
  std::filesystem::remove(work_root, ignored);  // Only when empty.
  if (!report.ok()) {
    std::fprintf(stderr, "service_bench: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::filesystem::create_directories(out_dir, ignored);
  Json::Object record = report->details;
  Json::Object metrics;
  for (const auto& [name, value] : report->metrics) metrics[name] = value;
  record["metrics"] = Json(std::move(metrics));
  Json::Array failures;
  for (const std::string& failure : report->check_failures) {
    failures.push_back(Json(failure));
    std::fprintf(stderr, "service_bench: CHECK FAILED: %s\n", failure.c_str());
  }
  record["check_failures"] = Json(std::move(failures));
  const std::filesystem::path run_file =
      std::filesystem::path(out_dir) /
      (adh::common::StrFormat("run-%s-t%d.json", tag.c_str(),
                              config.trace ? 1 : 0));
  if (!WriteFile(run_file, Json(std::move(record)).Pretty() + "\n")) {
    std::fprintf(stderr, "service_bench: cannot write %s\n", run_file.c_str());
  }
  if (config.trace) {
    const std::filesystem::path spans_file =
        std::filesystem::path(out_dir) / ("spans-" + tag + ".jsonl");
    if (!WriteFile(spans_file, report->spans_jsonl)) {
      std::fprintf(stderr, "service_bench: cannot write %s\n",
                   spans_file.c_str());
    }
  }
  std::printf("%s\n", ResultLine(*report).c_str());
  std::fflush(stdout);
  return report->correct ? 0 : 1;
}
