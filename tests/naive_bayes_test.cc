#include "ml/naive_bayes.h"

#include <gtest/gtest.h>
#include "test_util.h"

namespace adahealth {
namespace ml {
namespace {

using transform::Matrix;

TEST(NaiveBayesTest, SeparatesGaussianBlobs) {
  test::Blobs train = test::MakeBlobs({{0.0, 0.0}, {5.0, 5.0}}, 60, 0.8, 61);
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(train.points, train.labels, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{0.2, -0.1}), 0);
  EXPECT_EQ(model.Predict(std::vector<double>{5.3, 4.8}), 1);
}

TEST(NaiveBayesTest, GeneralizesOnHeldOut) {
  test::Blobs train = test::MakeBlobs(
      {{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}}, 60, 0.6, 63);
  test::Blobs held_out = test::MakeBlobs(
      {{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}}, 40, 0.6, 64);
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(train.points, train.labels, 3).ok());
  std::vector<int32_t> predicted = test::PredictBatch(model, held_out.points);
  int correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == held_out.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / predicted.size(), 0.95);
}

TEST(NaiveBayesTest, PriorsBreakTiesTowardFrequentClass) {
  // Identical likelihoods, imbalanced priors.
  Matrix features(10, 1, 0.0);
  std::vector<int32_t> labels{0, 0, 0, 0, 0, 0, 0, 0, 1, 1};
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(features, labels, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{0.0}), 0);
}

TEST(NaiveBayesTest, HandlesConstantFeatures) {
  Matrix features(6, 2);
  std::vector<int32_t> labels{0, 0, 0, 1, 1, 1};
  for (size_t i = 0; i < 6; ++i) {
    features.At(i, 0) = i < 3 ? 0.0 : 1.0;
    features.At(i, 1) = 42.0;  // Constant everywhere.
  }
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(features, labels, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{0.0, 42.0}), 0);
  EXPECT_EQ(model.Predict(std::vector<double>{1.0, 42.0}), 1);
}

TEST(NaiveBayesTest, UnseenClassNeverPredicted) {
  Matrix features(4, 1);
  for (size_t i = 0; i < 4; ++i) features.At(i, 0) = static_cast<double>(i);
  std::vector<int32_t> labels{0, 0, 2, 2};  // Class 1 absent.
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(features, labels, 3).ok());
  for (double x : {-1.0, 0.5, 2.5, 9.0}) {
    EXPECT_NE(model.Predict(std::vector<double>{x}), 1);
  }
}

TEST(NaiveBayesTest, RejectsInvalidInput) {
  Matrix features(3, 1, 1.0);
  GaussianNaiveBayes model;
  EXPECT_FALSE(model.Fit(features, {0, 1}, 2).ok());
  EXPECT_FALSE(model.Fit(features, {0, 1, 9}, 2).ok());
  EXPECT_FALSE(model.Fit(features, {0, 1, 1}, 0).ok());
  EXPECT_FALSE(model.Fit(Matrix(), {}, 2).ok());
}

}  // namespace
}  // namespace ml
}  // namespace adahealth
