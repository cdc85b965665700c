// Ablation A3: the cluster-robustness assessor. The paper uses a
// decision tree ("In our first implementation, we used decision trees
// as classification model"); this bench compares it against a Gaussian
// naive Bayes assessor in the same Table-I protocol and reports which
// K each variant selects.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/optimizer.h"
#include "dataset/synthetic_cohort.h"
#include "transform/feature_select.h"
#include "transform/vsm.h"

namespace {

using namespace adahealth;

bool SmokeMode() {
  const char* env = std::getenv("ADA_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

int RunModel(const transform::Matrix& vsm, core::RobustnessModel model,
             const char* name, common::Json::Array& bench_rows) {
  core::OptimizerOptions options;
  options.candidate_ks =
      SmokeMode() ? std::vector<int32_t>{6, 8} : std::vector<int32_t>{6, 7, 8, 9, 10, 12};
  options.cv_folds = SmokeMode() ? 5 : 10;
  options.model = model;
  options.seed = 20160516;
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  common::WallTimer sweep_timer;
  auto result = core::OptimizeClustering(vsm, options);
  const double sweep_seconds = sweep_timer.ElapsedSeconds();
  if (!result.ok()) {
    std::printf("optimizer failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }
  {
    common::Json::Object row;
    row["assessor"] = name;
    row["sweep_seconds"] = sweep_seconds;
    row["selected_k"] = static_cast<int64_t>(result->best_k());
    row["composite"] = result->best().composite;
    row["candidates"] =
        static_cast<int64_t>(result->candidates.size());
    row["skipped"] = static_cast<int64_t>(result->num_skipped());
    row["warm_starts"] =
        metrics.GetCounter("optimizer/warm_starts").value();
    row["kmeans_restarts"] = metrics.GetCounter("optimizer/restarts").value();
    row["kmeans_skipped_distance_checks"] =
        metrics.GetCounter("kmeans/skipped_distance_checks").value();
    // Read here: the next assessor's Reset() clears the registry.
    row["cv_seconds"] =
        metrics.GetHistogram("optimizer/cv_seconds").total_seconds();
    row["fold_fit_ms"] =
        1e3 * metrics.GetHistogram("cv/fold_fit_seconds")
                  .snapshot()
                  .mean_seconds();
    bench_rows.push_back(common::Json(std::move(row)));
  }
  std::printf("assessor: %s (%.1f s)\n", name, sweep_seconds);
  std::printf("%-4s %-10s %-14s %-10s %-10s\n", "K", "Accuracy",
              "AVG Precision", "AVG Recall", "composite");
  for (const auto& candidate : result->candidates) {
    if (candidate.skipped()) {
      std::printf("%-4d skipped: %s\n", candidate.k,
                  candidate.status.message().c_str());
      continue;
    }
    std::printf("%-4d %-10.2f %-14.2f %-10.2f %-10.3f%s\n", candidate.k,
                100.0 * candidate.accuracy,
                100.0 * candidate.avg_precision,
                100.0 * candidate.avg_recall, candidate.composite,
                candidate.k == result->best_k() ? "  <== selected" : "");
  }
  std::printf("\n");
  return 0;
}

int Run() {
  common::WallTimer timer;
  std::printf("=== Ablation A3: robustness assessor (decision tree vs "
              "naive Bayes) ===\n");
  dataset::CohortConfig config = dataset::PaperScaleConfig();
  config.num_patients = SmokeMode() ? 400 : 2000;  // Keeps 10-fold CV brisk.
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  if (!cohort.ok()) return 1;
  std::vector<bool> mask =
      transform::TopFractionExamsMask(cohort->log, 0.40);
  transform::VsmOptions vsm_options{transform::VsmWeighting::kTfIdf,
                                    transform::VsmNormalization::kL2};
  transform::Matrix vsm =
      transform::BuildVsm(cohort->log.FilterExamTypes(mask), vsm_options);

  common::Json::Array bench_rows;
  if (RunModel(vsm, core::RobustnessModel::kDecisionTree,
               "decision tree (paper's choice)", bench_rows) != 0) {
    return 1;
  }
  if (RunModel(vsm, core::RobustnessModel::kNaiveBayes,
               "Gaussian naive Bayes", bench_rows) != 0) {
    return 1;
  }
  if (RunModel(vsm, core::RobustnessModel::kNearestNeighbors,
               "k-nearest neighbours (k=5)", bench_rows) != 0) {
    return 1;
  }
  // The registry now holds the last assessor's run only; the per-assessor
  // CV numbers are in BENCH_optimizer.json's rows.
  const std::string metrics_path = "bench_optimizer_ablation_metrics.json";
  if (common::MetricsRegistry::Default().WriteJsonFile(metrics_path).ok()) {
    std::printf("[optimizer_ablation] metrics written to %s\n",
                metrics_path.c_str());
  }

  common::Json::Object doc;
  doc["bench"] = "optimizer_sweep";
  {
    common::Json::Object machine;
    machine["hardware_threads"] = static_cast<int64_t>(
        common::ThreadPool::Shared().num_threads());
    doc["machine"] = common::Json(std::move(machine));
  }
  {
    common::Json::Object cfg;
    cfg["rows"] = static_cast<int64_t>(vsm.rows());
    cfg["cols"] = static_cast<int64_t>(vsm.cols());
    cfg["smoke"] = SmokeMode();
    doc["config"] = common::Json(std::move(cfg));
  }
  doc["results"] = common::Json(std::move(bench_rows));
  const std::string bench_path = "BENCH_optimizer.json";
  std::ofstream out(bench_path);
  out << common::Json(std::move(doc)).Pretty() << "\n";
  if (!out) {
    std::printf("failed to write %s\n", bench_path.c_str());
    return 1;
  }
  std::printf("[optimizer_ablation] results written to %s\n",
              bench_path.c_str());
  std::printf("[optimizer_ablation] total time: %.1f s\n\n",
              timer.ElapsedSeconds());
  return 0;
}

}  // namespace

int main() { return Run(); }
