#include "ml/knn.h"

#include <gtest/gtest.h>
#include "test_util.h"

namespace adahealth {
namespace ml {
namespace {

using transform::Matrix;

TEST(KnnTest, SeparatesBlobs) {
  test::Blobs train = test::MakeBlobs({{0.0, 0.0}, {8.0, 8.0}}, 40, 0.6,
                                      101);
  KnnClassifier model;
  ASSERT_TRUE(model.Fit(train.points, train.labels, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{0.3, -0.2}), 0);
  EXPECT_EQ(model.Predict(std::vector<double>{8.1, 7.7}), 1);
}

TEST(KnnTest, KOneIsNearestNeighbor) {
  Matrix features(2, 1);
  features.At(0, 0) = 0.0;
  features.At(1, 0) = 10.0;
  KnnOptions options;
  options.k = 1;
  KnnClassifier model(options);
  ASSERT_TRUE(model.Fit(features, {0, 1}, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{2.0}), 0);
  EXPECT_EQ(model.Predict(std::vector<double>{8.0}), 1);
}

TEST(KnnTest, MajorityVoteBeatsSingleNeighbor) {
  // Nearest point has label 1, but the 3-neighborhood majority is 0.
  Matrix features(4, 1);
  features.At(0, 0) = 1.0;   // Label 1 (closest to query 0.9).
  features.At(1, 0) = 1.5;   // Label 0.
  features.At(2, 0) = 1.6;   // Label 0.
  features.At(3, 0) = 50.0;  // Label 1, far away.
  KnnOptions options;
  options.k = 3;
  KnnClassifier model(options);
  ASSERT_TRUE(model.Fit(features, {1, 0, 0, 1}, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{0.9}), 0);
}

TEST(KnnTest, KLargerThanTrainingSetClamps) {
  Matrix features(3, 1);
  for (size_t i = 0; i < 3; ++i) features.At(i, 0) = static_cast<double>(i);
  KnnOptions options;
  options.k = 50;
  KnnClassifier model(options);
  ASSERT_TRUE(model.Fit(features, {0, 0, 1}, 2).ok());
  EXPECT_EQ(model.Predict(std::vector<double>{5.0}), 0);  // Majority.
}

TEST(KnnTest, GeneralizesOnHeldOut) {
  test::Blobs train = test::MakeBlobs(
      {{0.0, 0.0}, {5.0, 0.0}, {0.0, 5.0}}, 50, 0.6, 103);
  test::Blobs held_out = test::MakeBlobs(
      {{0.0, 0.0}, {5.0, 0.0}, {0.0, 5.0}}, 30, 0.6, 104);
  KnnClassifier model;
  ASSERT_TRUE(model.Fit(train.points, train.labels, 3).ok());
  std::vector<int32_t> predicted = test::PredictBatch(model, held_out.points);
  int correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == held_out.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / predicted.size(), 0.95);
}

TEST(KnnTest, RejectsInvalidInput) {
  Matrix features(3, 1, 1.0);
  KnnClassifier model;
  EXPECT_FALSE(model.Fit(features, {0, 1}, 2).ok());
  EXPECT_FALSE(model.Fit(features, {0, 1, 7}, 2).ok());
  EXPECT_FALSE(model.Fit(Matrix(), {}, 2).ok());
  KnnOptions bad;
  bad.k = 0;
  KnnClassifier bad_model(bad);
  EXPECT_FALSE(bad_model.Fit(features, {0, 1, 1}, 2).ok());
}

}  // namespace
}  // namespace ml
}  // namespace adahealth
