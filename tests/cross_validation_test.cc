#include "ml/cross_validation.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "dataset/synthetic_cohort.h"
#include "ml/decision_tree.h"
#include "ml/naive_bayes.h"
#include "test_util.h"
#include "transform/vsm.h"

namespace adahealth {
namespace ml {
namespace {

TEST(StratifiedKFoldTest, PartitionsEverySampleOnce) {
  std::vector<int32_t> labels(30);
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = i % 3;
  auto folds = StratifiedKFold(labels, 3, 5, 17);
  ASSERT_TRUE(folds.ok());
  ASSERT_EQ(folds->size(), 5u);
  std::vector<int> seen(labels.size(), 0);
  for (const Fold& fold : folds.value()) {
    for (size_t id : fold.test_ids) ++seen[id];
    // Train/test are disjoint and cover everything.
    std::set<size_t> train(fold.train_ids.begin(), fold.train_ids.end());
    for (size_t id : fold.test_ids) EXPECT_FALSE(train.contains(id));
    EXPECT_EQ(fold.train_ids.size() + fold.test_ids.size(), labels.size());
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(StratifiedKFoldTest, PreservesClassProportions) {
  // 40 of class 0, 20 of class 1 -> each of 4 folds: 10/5.
  std::vector<int32_t> labels;
  for (int i = 0; i < 40; ++i) labels.push_back(0);
  for (int i = 0; i < 20; ++i) labels.push_back(1);
  auto folds = StratifiedKFold(labels, 2, 4, 19);
  ASSERT_TRUE(folds.ok());
  for (const Fold& fold : folds.value()) {
    int class0 = 0;
    int class1 = 0;
    for (size_t id : fold.test_ids) {
      if (labels[id] == 0) {
        ++class0;
      } else {
        ++class1;
      }
    }
    EXPECT_EQ(class0, 10);
    EXPECT_EQ(class1, 5);
  }
}

TEST(StratifiedKFoldTest, DeterministicForSeed) {
  std::vector<int32_t> labels(20, 0);
  for (size_t i = 10; i < 20; ++i) labels[i] = 1;
  auto a = StratifiedKFold(labels, 2, 5, 21);
  auto b = StratifiedKFold(labels, 2, 5, 21);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t f = 0; f < a->size(); ++f) {
    EXPECT_EQ((*a)[f].test_ids, (*b)[f].test_ids);
  }
}

TEST(StratifiedKFoldTest, RejectsBadArguments) {
  std::vector<int32_t> labels{0, 1, 0, 1};
  EXPECT_FALSE(StratifiedKFold(labels, 2, 1, 1).ok());
  EXPECT_FALSE(StratifiedKFold(labels, 2, 5, 1).ok());
  EXPECT_FALSE(StratifiedKFold(labels, 0, 2, 1).ok());
  EXPECT_FALSE(StratifiedKFold({0, 3}, 2, 2, 1).ok());
}

TEST(StratifiedKFoldTest, RejectsClassSmallerThanFoldCount) {
  // Class 1 has two members: it cannot appear in each of 5 test folds.
  std::vector<int32_t> labels(20, 0);
  labels[3] = 1;
  labels[11] = 1;
  auto folds = StratifiedKFold(labels, 2, 5, 41);
  ASSERT_FALSE(folds.ok());
  EXPECT_EQ(folds.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(StratifiedKFoldTest, EmptyClassIsAllowed) {
  // num_classes = 3 but class 2 never occurs; stratification over the
  // present classes still works.
  std::vector<int32_t> labels;
  for (int i = 0; i < 10; ++i) labels.push_back(0);
  for (int i = 0; i < 10; ++i) labels.push_back(1);
  auto folds = StratifiedKFold(labels, 3, 5, 43);
  ASSERT_TRUE(folds.ok());
  EXPECT_EQ(folds->size(), 5u);
}

/// StratifiedKFold's former construction, kept verbatim as the oracle:
/// each fold's members gathered, then test and train ids sorted.
std::vector<Fold> SortedFoldsOracle(const std::vector<int32_t>& labels,
                                    int32_t num_classes, int32_t num_folds,
                                    uint64_t seed) {
  std::vector<std::vector<size_t>> by_class(
      static_cast<size_t>(num_classes));
  for (size_t i = 0; i < labels.size(); ++i) {
    by_class[static_cast<size_t>(labels[i])].push_back(i);
  }
  common::Rng rng(seed);
  std::vector<std::vector<size_t>> fold_members(
      static_cast<size_t>(num_folds));
  size_t deal = 0;
  for (auto& bucket : by_class) {
    rng.Shuffle(bucket);
    for (size_t id : bucket) {
      fold_members[deal % static_cast<size_t>(num_folds)].push_back(id);
      ++deal;
    }
  }

  std::vector<Fold> folds(static_cast<size_t>(num_folds));
  for (size_t f = 0; f < folds.size(); ++f) {
    folds[f].test_ids = fold_members[f];
    std::sort(folds[f].test_ids.begin(), folds[f].test_ids.end());
    for (size_t other = 0; other < folds.size(); ++other) {
      if (other == f) continue;
      folds[f].train_ids.insert(folds[f].train_ids.end(),
                                fold_members[other].begin(),
                                fold_members[other].end());
    }
    std::sort(folds[f].train_ids.begin(), folds[f].train_ids.end());
  }
  return folds;
}

TEST(StratifiedKFoldTest, MatchesTheSortBasedConstruction) {
  // Generated label sets: 2-12 folds, 1-9 classes (some left empty),
  // skewed and balanced class sizes, from the smallest valid sample
  // count up to a few thousand.
  common::Rng rng(2016);
  int compared = 0;
  for (int round = 0; round < 400; ++round) {
    const int32_t num_folds = static_cast<int32_t>(rng.UniformInt(2, 12));
    const int32_t num_classes = static_cast<int32_t>(rng.UniformInt(1, 9));
    std::vector<int32_t> labels;
    for (int32_t c = 0; c < num_classes; ++c) {
      if (test::Bernoulli(rng, 0.2)) continue;  // An empty class.
      const int64_t members =
          num_folds + rng.UniformInt(0, round % 4 == 0 ? 2000 : 60);
      for (int64_t i = 0; i < members; ++i) labels.push_back(c);
    }
    if (labels.empty()) continue;
    // Interleave the classes the way real cluster labels arrive.
    rng.Shuffle(labels);
    const uint64_t seed = rng.NextUint64();
    auto folds = StratifiedKFold(labels, num_classes, num_folds, seed);
    ASSERT_TRUE(folds.ok()) << round << ": " << folds.status().ToString();
    const std::vector<Fold> oracle =
        SortedFoldsOracle(labels, num_classes, num_folds, seed);
    ASSERT_EQ(folds->size(), oracle.size()) << round;
    for (size_t f = 0; f < oracle.size(); ++f) {
      ASSERT_EQ((*folds)[f].test_ids, oracle[f].test_ids) << round << "/" << f;
      ASSERT_EQ((*folds)[f].train_ids, oracle[f].train_ids)
          << round << "/" << f;
    }
    ++compared;
  }
  EXPECT_GT(compared, 300);
}

TEST(CrossValidateTest, NearPerfectOnSeparableData) {
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {8.0, 8.0}}, 50, 0.5, 23);
  auto report = CrossValidate(
      blobs.points, blobs.labels, 2, 10, 25,
      [] { return std::make_unique<DecisionTreeClassifier>(); });
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->accuracy, 0.97);
  EXPECT_EQ(report->num_samples, 100);
}

TEST(CrossValidateTest, ChanceLevelOnRandomLabels) {
  test::Blobs blobs = test::MakeBlobs({{0.0, 0.0}}, 200, 1.0, 27);
  common::Rng rng(29);
  std::vector<int32_t> random_labels(blobs.points.rows());
  for (auto& label : random_labels) {
    label = static_cast<int32_t>(rng.UniformUint64(2));
  }
  auto report = CrossValidate(
      blobs.points, random_labels, 2, 5, 31,
      [] { return std::make_unique<GaussianNaiveBayes>(); });
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->accuracy, 0.65);  // No signal to learn.
}

TEST(CrossValidateTest, WorksWithNaiveBayesFactory) {
  test::Blobs blobs = test::MakeBlobs({{0.0}, {6.0}}, 40, 0.5, 33);
  auto report = CrossValidate(
      blobs.points, blobs.labels, 2, 4, 35,
      [] { return std::make_unique<GaussianNaiveBayes>(); });
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->accuracy, 0.95);
}

TEST(CrossValidateTest, RejectsMismatchedLabels) {
  test::Blobs blobs = test::MakeBlobs({{0.0}}, 10, 0.5, 37);
  std::vector<int32_t> labels(5, 0);
  auto report = CrossValidate(
      blobs.points, labels, 1, 2, 39,
      [] { return std::make_unique<DecisionTreeClassifier>(); });
  EXPECT_FALSE(report.ok());
}

// Golden values: the paper's robustness check (decision tree, 10-fold
// CV) on the count-weighted VSM of a small synthetic cohort, labelled by
// its latent profiles. Integer counts keep libm and the ISA out of the
// inputs, so any change to the tree the CART code builds, or to the
// folds, moves these numbers.
TEST(CrossValidateGoldenTest, DecisionTreeOnCountVsmMatchesRecordedValues) {
  auto cohort =
      dataset::SyntheticCohortGenerator(dataset::TestScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  const transform::Matrix vsm = transform::BuildVsm(cohort->log);
  const std::vector<int32_t> labels = cohort->log.ProfileLabels();
  const int32_t num_classes = dataset::TestScaleConfig().num_profiles;
  auto report = CrossValidate(
      vsm, labels, num_classes, 10, 20160516,
      [] { return std::make_unique<DecisionTreeClassifier>(); });
  ASSERT_TRUE(report.ok());
  DecisionTreeClassifier full;
  ASSERT_TRUE(full.Fit(vsm, labels, num_classes).ok());
  EXPECT_EQ(report->accuracy, 0.4375);
  EXPECT_EQ(report->macro_precision, 0.41840936149572272);
  EXPECT_EQ(report->macro_recall, 0.39904249596038005);
  EXPECT_EQ(full.num_nodes(), 223u);
  EXPECT_EQ(full.depth(), 12);
}

// Every fold fitting from one shared presort gives the same report as
// each fold presorting its own rows.
TEST(CrossValidateGoldenTest, SharedPresortMatchesRecordedValues) {
  auto cohort =
      dataset::SyntheticCohortGenerator(dataset::TestScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  const transform::Matrix vsm = transform::BuildVsm(cohort->log);
  const std::vector<int32_t> labels = cohort->log.ProfileLabels();
  const int32_t num_classes = dataset::TestScaleConfig().num_profiles;
  const PresortedFeatures presorted(vsm);
  auto report = CrossValidate(vsm, labels, num_classes, 10, 20160516, [&] {
    return std::make_unique<DecisionTreeClassifier>(DecisionTreeOptions(),
                                                    &presorted);
  });
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->accuracy, 0.4375);
  EXPECT_EQ(report->macro_precision, 0.41840936149572272);
  EXPECT_EQ(report->macro_recall, 0.39904249596038005);
}

}  // namespace
}  // namespace ml
}  // namespace adahealth
