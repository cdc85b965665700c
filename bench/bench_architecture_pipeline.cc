// Walks the full ADA-HEALTH architecture of the paper's Figure 1.
//
// Figure 1 is a block diagram, not a data series; this bench proves
// every block exists and shows the dataflow between them on a mid-size
// synthetic cohort: characterization -> transformation selection ->
// adaptive partial mining -> algorithm optimization -> knowledge
// extraction -> K-DB (six collections) -> feedback-adaptive ranking ->
// end-goal recommendation.
#include <cstdio>

#include "common/metrics.h"
#include "common/timer.h"
#include "core/endgoal.h"
#include "core/feedback_sim.h"
#include "core/session.h"
#include "kdb/query.h"

namespace {

using namespace adahealth;

int Run() {
  common::WallTimer timer;
  std::printf("=== Figure 1: ADA-HEALTH architecture walk-through ===\n");

  dataset::CohortConfig config = dataset::PaperScaleConfig();
  config.num_patients = 1500;  // Mid-size for a brisk end-to-end run.
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  if (!cohort.ok()) {
    std::printf("cohort generation failed\n");
    return 1;
  }

  kdb::Database db;
  core::AnalysisSession session(&db);
  core::SessionOptions options;
  options.dataset_id = "figure1-cohort";
  options.partial.ks = {6, 8};
  options.optimizer.candidate_ks = {6, 8, 10, 12};
  options.optimizer.cv_folds = 10;
  auto result = session.Run(cohort->log, &cohort->taxonomy, options);
  if (!result.ok()) {
    std::printf("session failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n[block 1] data characterization\n%s\n",
              result->characterization.text.c_str());

  std::printf("\n[block 2] data transformation selection\n");
  for (const auto& score : result->transform.scores) {
    std::printf("  %-7s/%-5s OS %.4f (baseline %.4f, lift %.2fx)%s\n",
                transform::VsmWeightingName(score.options.weighting),
                transform::VsmNormalizationName(score.options.normalization),
                score.overall_similarity, score.baseline_similarity,
                score.lift,
                &score == &result->transform.scores[result->transform
                                                        .best_index]
                    ? "   <== selected"
                    : "");
  }

  std::printf("\n[block 3] adaptive partial mining\n");
  for (size_t s = 0; s < result->partial.steps.size(); ++s) {
    const auto& step = result->partial.steps[s];
    std::printf("  %.0f%% of exam types -> %.0f%% of records, diff "
                "%.2f%%%s\n",
                100.0 * step.fraction, 100.0 * step.record_coverage,
                100.0 * step.mean_relative_diff,
                s == result->partial.selected_step ? "   <== selected" : "");
  }

  std::printf("\n[block 4] algorithm optimization (K sweep)\n");
  for (const auto& candidate : result->optimizer.candidates) {
    if (candidate.skipped()) {
      std::printf("  K=%-3d skipped: %s\n", candidate.k,
                  candidate.status.message().c_str());
      continue;
    }
    std::printf("  K=%-3d SSE=%-10.1f acc=%-6.2f prec=%-6.2f rec=%-6.2f%s\n",
                candidate.k, candidate.sse, 100.0 * candidate.accuracy,
                100.0 * candidate.avg_precision,
                100.0 * candidate.avg_recall,
                candidate.k == result->optimizer.best_k() ? "  <== selected"
                                                          : "");
  }

  std::printf("\n[block 5] knowledge extraction + ranking (top 8)\n");
  for (size_t i = 0; i < std::min<size_t>(8, result->knowledge.size());
       ++i) {
    std::printf("  %zu. [%s] %s\n", i + 1,
                result->knowledge[i].kind.c_str(),
                result->knowledge[i].description.c_str());
  }

  std::printf("\n[block 6] K-DB state (six collections)\n");
  for (const std::string& name : kdb::Schema::CollectionNames()) {
    std::printf("  %-22s %zu documents\n", name.c_str(),
                db.GetOrCreate(name).size());
  }

  std::printf("\n[block 7] end-goal identification for this dataset\n");
  // Seed the feedback collection from a persona, then recommend.
  core::FeedbackSimulator oracle(core::DiabetologistPersona(), 99);
  kdb::Collection& feedback = db.GetOrCreate(kdb::Schema::kFeedback);
  for (int repeat = 0; repeat < 20; ++repeat) {
    for (int32_t g = 0; g < core::kNumEndGoals; ++g) {
      core::EndGoal goal = static_cast<core::EndGoal>(g);
      feedback.Insert(core::MakeGoalFeedbackDocument(
          "past-dataset-" + std::to_string(repeat), "diabetologist",
          result->characterization.features, goal,
          oracle.LabelGoal(result->characterization.features, goal)));
    }
  }
  core::EndGoalEngine engine;
  if (engine.TrainFromFeedback(feedback).ok()) {
    auto recommendations =
        engine.RecommendGoals(result->characterization.features);
    if (recommendations.ok()) {
      for (const auto& recommendation : recommendations.value()) {
        std::printf("  %-24s predicted interest: %-6s (%s)\n",
                    core::EndGoalName(recommendation.viable.goal),
                    core::InterestName(recommendation.predicted_interest),
                    recommendation.viable.rationale.c_str());
      }
    }
  }

  std::printf("\n%s\n", result->summary.c_str());

  // Per-stage wall-clock timings (session/* histograms) plus every
  // other instrument the stages recorded, as machine-readable JSON in a
  // file: they differ run to run, and stdout stays reproducible.
  const common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  const std::string metrics_path = "bench_architecture_pipeline_metrics.json";
  if (metrics.WriteJsonFile(metrics_path).ok()) {
    std::printf("[architecture_pipeline] metrics written to %s\n",
                metrics_path.c_str());
  }
  std::printf("[architecture_pipeline] total time: %.1f s\n\n",
              timer.ElapsedSeconds());
  return 0;
}

}  // namespace

int main() { return Run(); }
