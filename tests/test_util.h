// Shared helpers for the test suite.
#ifndef ADAHEALTH_TESTS_TEST_UTIL_H_
#define ADAHEALTH_TESTS_TEST_UTIL_H_

#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"
#include "transform/matrix.h"

namespace adahealth {
namespace test {

/// True with probability `p` (clamped to [0, 1]); draws one uniform
/// double from `rng` only when 0 < p < 1.
inline bool Bernoulli(common::Rng& rng, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return rng.UniformDouble() < p;
}

/// `classifier`'s predicted label for every row of `features`.
inline std::vector<int32_t> PredictBatch(const ml::Classifier& classifier,
                                         const transform::Matrix& features) {
  std::vector<int32_t> labels(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    labels[i] = classifier.Predict(features.Row(i));
  }
  return labels;
}

/// Gaussian blob dataset with ground-truth labels.
struct Blobs {
  transform::Matrix points;
  std::vector<int32_t> labels;
};

/// Generates `per_cluster` points around each of `centers` with
/// isotropic Gaussian `spread`.
inline Blobs MakeBlobs(const std::vector<std::vector<double>>& centers,
                       size_t per_cluster, double spread, uint64_t seed) {
  common::Rng rng(seed);
  const size_t dims = centers[0].size();
  Blobs blobs;
  blobs.points =
      transform::Matrix(centers.size() * per_cluster, dims);
  size_t row = 0;
  for (size_t c = 0; c < centers.size(); ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      for (size_t d = 0; d < dims; ++d) {
        blobs.points.At(row, d) = centers[c][d] + rng.Normal(0.0, spread);
      }
      blobs.labels.push_back(static_cast<int32_t>(c));
      ++row;
    }
  }
  return blobs;
}

/// Fraction of point pairs on which two labelings agree about being in
/// the same/different cluster (Rand index); 1.0 = identical partition.
inline double RandIndex(const std::vector<int32_t>& a,
                        const std::vector<int32_t>& b) {
  size_t agree = 0;
  size_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      bool same_a = a[i] == a[j];
      bool same_b = b[i] == b[j];
      if (same_a == same_b) ++agree;
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(agree) /
                         static_cast<double>(total)
                   : 1.0;
}

}  // namespace test
}  // namespace adahealth

#endif  // ADAHEALTH_TESTS_TEST_UTIL_H_
