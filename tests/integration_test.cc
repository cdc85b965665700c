// Cross-module integration tests: the full ADA-HEALTH loop including
// K-DB persistence, feedback-driven end-goal learning, and the
// Table-I-shaped optimizer behaviour on a paper-like (reduced) cohort.
#include <filesystem>
#include <set>

#include <gtest/gtest.h>
#include "common/string_util.h"
#include "core/endgoal.h"
#include "core/feedback_sim.h"
#include "core/session.h"
#include "kdb/query.h"

namespace adahealth {
namespace {

using core::AnalysisSession;
using core::EndGoal;
using core::Interest;
using core::SessionOptions;

SessionOptions FastSessionOptions() {
  SessionOptions options;
  options.dataset_id = "integration-cohort";
  options.transform.sample_fraction = 0.4;
  options.partial.fractions = {0.3, 0.6, 1.0};
  options.partial.ks = {3, 4};
  options.optimizer.candidate_ks = {3, 4, 6};
  options.optimizer.cv_folds = 4;
  options.pattern_mining.min_support_level0 = 0.4;
  options.pattern_mining.min_support_level1 = 0.5;
  options.pattern_mining.min_support_level2 = 0.6;
  return options;
}

TEST(IntegrationTest, SessionKdbPersistenceRoundTrip) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());

  // Its own directory: another test's K-DB files must not be loaded.
  const std::string directory = testing::TempDir() + "session_kdb_round_trip";
  std::filesystem::remove_all(directory);
  ASSERT_TRUE(std::filesystem::create_directories(directory));
  {
    kdb::Database db;
    AnalysisSession session(&db);
    auto result =
        session.Run(cohort->log, &cohort->taxonomy, FastSessionOptions());
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(db.SaveTo(directory).ok());
  }
  // Reload in a fresh database and verify the artifacts survive.
  kdb::Database reloaded;
  ASSERT_TRUE(
      reloaded.LoadFrom(directory, kdb::Schema::CollectionNames()).ok());
  EXPECT_EQ(reloaded.GetOrCreate(kdb::Schema::kDescriptors).size(), 1u);
  EXPECT_GT(reloaded.GetOrCreate(kdb::Schema::kKnowledgeItems).size(), 0u);
  auto selected = reloaded.GetOrCreate(kdb::Schema::kSelectedKnowledge)
                      .Find(kdb::Query().Eq(
                          "dataset_id", common::Json("integration-cohort")));
  EXPECT_FALSE(selected.empty());
  std::filesystem::remove_all(directory);
}

TEST(IntegrationTest, FeedbackLoopImprovesInterestModel) {
  // The paper's claim C1: "The larger the number of previous user
  // interactions, the more accurate the classification model will be."
  core::PersonaConfig persona = core::ClinicalResearcherPersona();
  persona.noise_stddev = 0.15;
  core::FeedbackSimulator oracle(persona, 41);
  common::Rng rng(43);

  // A pool of varied datasets and their oracle labels.
  struct Example {
    stats::MetaFeatures features;
    EndGoal goal;
    Interest label;
  };
  std::vector<Example> pool;
  for (int d = 0; d < 60; ++d) {
    dataset::CohortConfig config = dataset::TestScaleConfig();
    config.num_patients = 120 + static_cast<int32_t>(rng.UniformInt(0, 300));
    config.mean_records_per_patient = rng.UniformDouble(3.0, 18.0);
    config.zipf_exponent = rng.UniformDouble(0.2, 1.5);
    config.seed = rng.NextUint64();
    auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
    ASSERT_TRUE(cohort.ok());
    stats::MetaFeatures features = stats::ComputeMetaFeatures(cohort->log);
    for (int32_t g = 0; g < core::kNumEndGoals; ++g) {
      EndGoal goal = static_cast<EndGoal>(g);
      pool.push_back({features, goal, oracle.LabelGoal(features, goal)});
    }
  }
  // Hold out the last 20% for evaluation.
  size_t split = pool.size() * 4 / 5;

  auto accuracy_with = [&](size_t train_count) {
    kdb::Collection feedback("feedback");
    for (size_t i = 0; i < train_count && i < split; ++i) {
      feedback.Insert(core::MakeGoalFeedbackDocument(
          common::StrFormat("d%zu", i), persona.name, pool[i].features,
          pool[i].goal, pool[i].label));
    }
    core::EndGoalEngine engine;
    if (!engine.TrainFromFeedback(feedback).ok()) return 0.0;
    int correct = 0;
    for (size_t i = split; i < pool.size(); ++i) {
      auto predicted =
          engine.PredictInterest(pool[i].features, pool[i].goal);
      if (predicted.ok() && predicted.value() == pool[i].label) ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(pool.size() - split);
  };

  double small = accuracy_with(10);
  double large = accuracy_with(split);
  EXPECT_GT(large, small);
  EXPECT_GT(large, 0.55);
}

TEST(IntegrationTest, OptimizerTableShapeOnReducedPaperWorkload) {
  // A reduced version of Table I: on a cohort with 4 latent profiles,
  // SSE decreases monotonically in K while the classification
  // composite peaks at the true K and degrades under heavy
  // over-segmentation — the exact trade-off the paper's optimizer
  // exploits.
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  transform::Matrix vsm = transform::BuildVsm(cohort->log);
  core::OptimizerOptions options;
  options.candidate_ks = {2, 3, 4, 6, 10, 16};
  options.cv_folds = 5;
  auto result = core::OptimizeClustering(vsm, options);
  ASSERT_TRUE(result.ok());

  // SSE strictly ordered (allowing tiny numeric slack).
  for (size_t i = 1; i < result->candidates.size(); ++i) {
    EXPECT_LE(result->candidates[i].sse,
              result->candidates[i - 1].sse * 1.01);
  }
  // Composite at the true K beats the extremes.
  double composite_at_4 = result->candidates[2].composite;
  double composite_at_16 = result->candidates.back().composite;
  EXPECT_GT(composite_at_4, composite_at_16);
  // The selected K is in the plausible neighborhood of the truth.
  EXPECT_GE(result->best_k(), 2);
  EXPECT_LE(result->best_k(), 6);
}

TEST(IntegrationTest, ExamSubsetMiningMatchesPaperStoryline) {
  // End-to-end §IV-B storyline: the reduced exam subsets yield quality
  // within tolerance of the full data, so ADA-HEALTH selects a proper
  // subset (non-final step) under the paper's 5% rule — on the
  // test-scale cohort we accept selecting any step strictly cheaper
  // than (or equal to) the full run and verify diffs are small.
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  core::PartialMiningOptions options;
  options.fractions = {0.2, 0.4, 1.0};
  options.ks = {3, 4, 5};
  options.tolerance = 0.05;
  auto result = core::RunExamSubsetPartialMining(cohort->log, options);
  ASSERT_TRUE(result.ok());
  // The 40%-of-exams step must already be close to the full data.
  EXPECT_LT(result->steps[1].mean_relative_diff, 0.15);
  // And the selected step is never worse than the full run.
  EXPECT_LE(result->steps[result->selected_step].mean_relative_diff,
            options.tolerance + 1e-12);
}

}  // namespace
}  // namespace adahealth
