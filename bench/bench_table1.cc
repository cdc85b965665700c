// Reproduces Table I of the paper ("OPTIMIZATION METRICS"):
//
//   K   SSE      Accuracy  AVG Precision  AVG Recall
//   6   3098.32  87.79     90.82          77.3
//   ...
//   20  1534     82.11     52.59          33.43
//
// Protocol (paper §IV-B): use 85% of the raw data (the vertical subset
// covering ~85% of records, i.e. the top 40% of exam types), run
// K-means for each candidate K, and for each cluster set train a
// decision tree to re-predict the cluster labels, evaluated with
// 10-fold cross-validation. ADA-HEALTH automatically selects the K
// with the best overall classification results (paper: K = 8).
//
// We do not expect to match the absolute numbers (the cohort is
// synthetic); the *shape* must hold: SSE decreases monotonically in K,
// the classification metrics peak near the latent profile count (8)
// and collapse for heavy over-segmentation (K = 15, 20).
#include <cstdio>

#include "cluster/elbow.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/optimizer.h"
#include "dataset/synthetic_cohort.h"
#include "transform/feature_select.h"
#include "transform/vsm.h"

namespace {

using namespace adahealth;

int Run() {
  common::WallTimer timer;
  std::printf("=== Table I: optimization metrics (paper-scale synthetic "
              "cohort) ===\n");

  auto cohort =
      dataset::SyntheticCohortGenerator(dataset::PaperScaleConfig())
          .Generate();
  if (!cohort.ok()) {
    std::printf("cohort generation failed: %s\n",
                cohort.status().ToString().c_str());
    return 1;
  }
  std::printf("cohort: %zu patients, %zu exam types, %zu records\n",
              cohort->log.num_patients(), cohort->log.num_exam_types(),
              cohort->log.num_records());

  // Paper protocol: analysis on the subset covering ~85% of the raw
  // records = the top 40% of exam types by frequency.
  std::vector<bool> mask =
      transform::TopFractionExamsMask(cohort->log, 0.40);
  double coverage = transform::RecordCoverage(cohort->log, mask);
  dataset::ExamLog subset = cohort->log.FilterExamTypes(mask);
  std::printf("subset: top 40%% of exam types -> %.1f%% of records "
              "(%zu exam types)\n\n",
              100.0 * coverage, subset.num_exam_types());

  // TF-IDF + L2 is the representation the ADA-HEALTH transformation
  // selector picks for this cohort (see bench_architecture_pipeline):
  // it exposes the clinical-profile structure that raw counts bury
  // under routine-exam volume.
  transform::VsmOptions vsm_options{transform::VsmWeighting::kTfIdf,
                                    transform::VsmNormalization::kL2};
  transform::Matrix vsm = transform::BuildVsm(subset, vsm_options);

  core::OptimizerOptions options;
  options.candidate_ks = {6, 7, 8, 9, 10, 12, 15, 20};
  options.cv_folds = 10;
  options.model = core::RobustnessModel::kDecisionTree;
  options.seed = 20160516;
  auto result = core::OptimizeClustering(vsm, options);
  if (!result.ok()) {
    std::printf("optimizer failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }

  std::printf("%-4s %-12s %-10s %-14s %-10s\n", "K", "SSE", "Accuracy",
              "AVG Precision", "AVG Recall");
  for (const core::CandidateEvaluation& candidate : result->candidates) {
    if (candidate.skipped()) {
      std::printf("%-4d skipped: %s\n", candidate.k,
                  candidate.status.message().c_str());
      continue;
    }
    std::printf("%-4d %-12.2f %-10.2f %-14.2f %-10.2f\n", candidate.k,
                candidate.sse, 100.0 * candidate.accuracy,
                100.0 * candidate.avg_precision,
                100.0 * candidate.avg_recall);
  }
  // The paper's SSE-only analysis: "good values for K are in the range
  // from 8 to 20" — SSE admits a whole range, which is why the
  // classifier-based assessment is needed.
  std::vector<cluster::SsePoint> sweep;
  for (const auto& candidate : result->candidates) {
    if (candidate.skipped()) continue;
    sweep.push_back({candidate.k, candidate.sse});
  }
  auto elbow = cluster::AnalyzeElbow(sweep);
  if (elbow.ok()) {
    std::printf("\nSSE-only analysis: knee at K = %d; improvements "
                "flatten from K = %d on (SSE alone admits a range, as "
                "in the paper)\n",
                elbow->knee_k, elbow->admissible_from_k);
  }
  std::printf("\nADA-HEALTH automatically selects K = %d "
              "(best overall classification results)\n",
              result->best_k());
  std::printf("paper reference: SSE monotone decreasing; metrics peak at "
              "K = 8; paper selects K = 8\n");

  // Machine-readable runtime report: every stage recorded into the
  // default registry during the sweep. It holds wall-clock histograms,
  // so it goes to a file, not stdout, which stays reproducible.
  const common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  const std::string metrics_path = "bench_table1_metrics.json";
  if (metrics.WriteJsonFile(metrics_path).ok()) {
    std::printf("[table1] metrics written to %s\n", metrics_path.c_str());
  }
  std::printf("[table1] total time: %.1f s\n\n", timer.ElapsedSeconds());
  return 0;
}

}  // namespace

int main() { return Run(); }
