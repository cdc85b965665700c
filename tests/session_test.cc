#include "core/session.h"

#include <set>

#include <gtest/gtest.h>
#include "cluster/kmeans.h"
#include "common/metrics.h"
#include "kdb/query.h"
#include "transform/vsm.h"

namespace adahealth {
namespace core {
namespace {

SessionOptions FastSessionOptions() {
  SessionOptions options;
  options.dataset_id = "test-cohort";
  options.transform.sample_fraction = 0.4;
  options.transform.proxy_k = 4;
  options.partial.fractions = {0.3, 0.6, 1.0};
  options.partial.ks = {3, 4};
  options.partial.kmeans.max_iterations = 30;
  options.optimizer.candidate_ks = {3, 4, 6};
  options.optimizer.cv_folds = 4;
  options.pattern_mining.min_support_level0 = 0.4;
  options.pattern_mining.min_support_level1 = 0.5;
  options.pattern_mining.min_support_level2 = 0.6;
  options.pattern_mining.max_itemset_size = 3;
  return options;
}

class SessionTest : public testing::Test {
 protected:
  void SetUp() override {
    auto cohort = dataset::SyntheticCohortGenerator(
                      dataset::TestScaleConfig())
                      .Generate();
    ASSERT_TRUE(cohort.ok());
    cohort_ = std::move(cohort).value();
  }

  dataset::Cohort cohort_;
};

TEST_F(SessionTest, FullPipelineProducesAllArtifacts) {
  kdb::Database db;
  AnalysisSession session(&db);
  auto result =
      session.Run(cohort_.log, &cohort_.taxonomy, FastSessionOptions());
  ASSERT_TRUE(result.ok());

  // Characterization present.
  EXPECT_EQ(result->characterization.features.num_patients, 400);
  // Transform selection scored all candidates.
  EXPECT_EQ(result->transform.scores.size(), 6u);
  // Partial mining produced steps and a selection.
  EXPECT_GE(result->partial.steps.size(), 3u);
  EXPECT_LT(result->partial.selected_step, result->partial.steps.size());
  // Optimizer chose one of the candidate Ks.
  bool known_k = false;
  for (int32_t k : FastSessionOptions().optimizer.candidate_ks) {
    known_k |= result->optimizer.best_k() == k;
  }
  EXPECT_TRUE(known_k);
  // Knowledge items exist and include clusters.
  EXPECT_GE(result->knowledge.size(),
            static_cast<size_t>(result->optimizer.best_k()));
  bool has_cluster = false;
  for (const KnowledgeItem& item : result->knowledge) {
    if (item.kind == "cluster") has_cluster = true;
  }
  EXPECT_TRUE(has_cluster);
  EXPECT_FALSE(result->summary.empty());
}

TEST_F(SessionTest, PopulatesKdbCollections) {
  kdb::Database db;
  AnalysisSession session(&db);
  auto result =
      session.Run(cohort_.log, &cohort_.taxonomy, FastSessionOptions());
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(db.GetOrCreate(kdb::Schema::kDescriptors).size(), 1u);
  EXPECT_EQ(db.GetOrCreate(kdb::Schema::kTransformedDatasets).size(), 1u);
  EXPECT_EQ(db.GetOrCreate(kdb::Schema::kKnowledgeItems).size(),
            result->knowledge.size());
  size_t expected_selected = std::min(
      FastSessionOptions().max_selected_items, result->knowledge.size());
  EXPECT_EQ(db.GetOrCreate(kdb::Schema::kSelectedKnowledge).size(),
            expected_selected);
  // Raw dataset skipped by default.
  EXPECT_EQ(db.GetOrCreate(kdb::Schema::kRawDatasets).size(), 0u);

  // Stored items parse back into KnowledgeItems.
  for (const kdb::Document& document :
       db.GetOrCreate(kdb::Schema::kKnowledgeItems).documents()) {
    ASSERT_NE(document.Get("item"), nullptr);
    EXPECT_TRUE(KnowledgeItem::FromJson(*document.Get("item")).ok());
    EXPECT_EQ(document.Get("dataset_id")->AsString(), "test-cohort");
  }
}

TEST_F(SessionTest, SelectedKnowledgeIsRankedPrefix) {
  kdb::Database db;
  AnalysisSession session(&db);
  SessionOptions options = FastSessionOptions();
  options.max_selected_items = 5;
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, options);
  ASSERT_TRUE(result.ok());
  kdb::Collection& selected =
      db.GetOrCreate(kdb::Schema::kSelectedKnowledge);
  ASSERT_EQ(selected.size(), 5u);
  for (const kdb::Document& document : selected.documents()) {
    int64_t rank = document.Get("rank")->AsInt();
    auto item = KnowledgeItem::FromJson(*document.Get("item"));
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(item->id, result->knowledge[static_cast<size_t>(rank)].id);
  }
}

TEST_F(SessionTest, WorksWithoutTaxonomy) {
  kdb::Database db;
  AnalysisSession session(&db);
  auto result = session.Run(cohort_.log, nullptr, FastSessionOptions());
  ASSERT_TRUE(result.ok());
  // Only clustering-derived items, no itemsets/rules.
  for (const KnowledgeItem& item : result->knowledge) {
    EXPECT_TRUE(item.kind == "cluster" || item.kind == "outliers")
        << item.kind;
  }
}

TEST_F(SessionTest, StoreRawDatasetWhenRequested) {
  kdb::Database db;
  AnalysisSession session(&db);
  SessionOptions options = FastSessionOptions();
  options.store_raw_dataset = true;
  auto result = session.Run(cohort_.log, nullptr, options);
  ASSERT_TRUE(result.ok());
  kdb::Collection& raw = db.GetOrCreate(kdb::Schema::kRawDatasets);
  ASSERT_EQ(raw.size(), 1u);
  // Round-trip the stored CSV.
  auto restored = dataset::ExamLog::FromCsv(
      raw.documents()[0].Get("csv")->AsString());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_records(), cohort_.log.num_records());
}

TEST_F(SessionTest, PipelineRunPopulatesMetricsRegistry) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  kdb::Database db;
  AnalysisSession session(&db);
  auto result =
      session.Run(cohort_.log, &cohort_.taxonomy, FastSessionOptions());
  ASSERT_TRUE(result.ok());

  // Every pipeline layer recorded into the default registry.
  EXPECT_EQ(metrics.GetCounter("session/runs").value(), 1);
  for (const char* stage :
       {"session/characterize_seconds", "session/transform_select_seconds",
        "session/partial_mining_seconds", "session/optimize_seconds",
        "session/knowledge_seconds", "session/store_seconds",
        "session/total_seconds"}) {
    EXPECT_EQ(metrics.GetHistogram(stage).count(), 1) << stage;
  }
  EXPECT_GT(metrics.GetCounter("kmeans/runs").value(), 0);
  EXPECT_GT(metrics.GetCounter("kmeans/iterations").value(), 0);
  EXPECT_GT(metrics.GetHistogram("kmeans/assign_seconds").count(), 0);
  EXPECT_EQ(
      metrics.GetHistogram("optimizer/candidate_eval_seconds").count(),
      static_cast<int64_t>(
          FastSessionOptions().optimizer.candidate_ks.size()));
  EXPECT_GT(metrics.GetCounter("cv/folds").value(), 0);
  EXPECT_GT(metrics.GetCounter("partial_mining/steps").value(), 0);
  EXPECT_GT(metrics.GetCounter("kdb/inserts").value(), 0);

  // The registry exports as JSON for the bench trajectory.
  auto parsed = common::Json::Parse(metrics.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->Find("histograms")->Find("session/optimize_seconds"),
            nullptr);
}

// Regression tests for the [[nodiscard]] sweep: the knowledge-item
// helpers used to swallow shape errors into a silently-empty item list,
// which made a broken pipeline look like "no knowledge found". They now
// propagate the Status.
TEST_F(SessionTest, ClusterKnowledgeItemsPropagatesShapeErrors) {
  transform::Matrix vsm(4, cohort_.log.num_exam_types(), 0.1);
  cluster::Clustering clustering;
  clustering.k = 2;
  clustering.assignments = {0, 1};  // 2 assignments for 4 rows: invalid.
  auto items = ClusterKnowledgeItems(cohort_.log, vsm, clustering);
  ASSERT_FALSE(items.ok());
  EXPECT_EQ(items.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, ClusterKnowledgeItemsBuildsOneItemPerCluster) {
  transform::Matrix vsm = transform::BuildVsm(
      cohort_.log, transform::VsmOptions());
  auto clustering = cluster::RunKMeans(vsm, cluster::KMeansOptions{.k = 3});
  ASSERT_TRUE(clustering.ok());
  auto items = ClusterKnowledgeItems(cohort_.log, vsm, clustering.value());
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items->size(), 3u);
}

TEST_F(SessionTest, OutlierKnowledgeItemsPropagatesShapeErrors) {
  transform::Matrix vsm(4, 3, 0.1);
  cluster::Clustering clustering;
  clustering.k = 2;
  clustering.assignments = {0, 1};  // Wrong length again.
  auto items = OutlierKnowledgeItems(vsm, clustering);
  ASSERT_FALSE(items.ok());
  EXPECT_EQ(items.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, KnowledgeItemIdsAreUnique) {
  kdb::Database db;
  AnalysisSession session(&db);
  auto result =
      session.Run(cohort_.log, &cohort_.taxonomy, FastSessionOptions());
  ASSERT_TRUE(result.ok());
  std::set<std::string> ids;
  for (const KnowledgeItem& item : result->knowledge) {
    EXPECT_TRUE(ids.insert(item.id).second) << "duplicate " << item.id;
  }
}

}  // namespace
}  // namespace core
}  // namespace adahealth
