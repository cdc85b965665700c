#include "transform/vsm.h"

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace transform {
namespace {

dataset::ExamLog MakeLog() {
  std::vector<dataset::Patient> patients{{0, 50, -1}, {1, 60, -1},
                                         {2, 70, -1}};
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  auto b = dictionary.Intern("b");
  dictionary.Intern("never_used");
  std::vector<dataset::ExamRecord> records{
      {0, a, 1}, {0, a, 2}, {0, b, 3}, {1, a, 4}, {2, b, 5}, {2, b, 6}};
  return dataset::ExamLog(std::move(patients), std::move(dictionary),
                          std::move(records));
}

TEST(VsmTest, CountWeighting) {
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kCount,
                                    VsmNormalization::kNone});
  EXPECT_EQ(vsm.rows(), 3u);
  EXPECT_EQ(vsm.cols(), 3u);
  EXPECT_DOUBLE_EQ(vsm.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(vsm.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(vsm.At(0, 2), 0.0);
}

TEST(VsmTest, BinaryWeighting) {
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kBinary,
                                    VsmNormalization::kNone});
  EXPECT_DOUBLE_EQ(vsm.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(vsm.At(1, 1), 0.0);
}

TEST(VsmTest, TfIdfDeemphasizesUbiquitousExams) {
  // Exam a reaches 2/3 patients, exam b 2/3 patients; add one patient
  // with only a rare exam to differentiate: reuse the base log where
  // idf(a) = ln(3/2), idf(b) = ln(3/2).
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kTfIdf,
                                    VsmNormalization::kNone});
  double idf = std::log(3.0 / 2.0);
  EXPECT_NEAR(vsm.At(0, 0), 2.0 * idf, 1e-12);
  EXPECT_NEAR(vsm.At(2, 1), 2.0 * idf, 1e-12);
  // Unused exam column is all zero (idf of 0-coverage exams unused).
  EXPECT_DOUBLE_EQ(vsm.At(0, 2), 0.0);
}

TEST(VsmTest, L2Normalization) {
  Matrix vsm = BuildVsm(MakeLog(), {VsmWeighting::kCount,
                                    VsmNormalization::kL2});
  for (size_t r = 0; r < vsm.rows(); ++r) {
    double norm = Norm(vsm.Row(r));
    EXPECT_NEAR(norm, 1.0, 1e-12);
  }
}

// The VSM built straight into CSR form, as an oracle for BuildVsm: the
// same weighting and normalization arithmetic in the same order, so
// every cell must be bit-identical to BuildVsm's.
CsrMatrix BuildSparseVsm(const dataset::ExamLog& log,
                         const VsmOptions& options) {
  // Accumulate counts per patient with ordered maps so rows come out in
  // ascending column order.
  std::vector<std::map<uint32_t, double>> rows(log.num_patients());
  for (const auto& record : log.records()) {
    double& cell =
        rows[static_cast<size_t>(record.patient)]
            [static_cast<uint32_t>(record.exam_type)];
    switch (options.weighting) {
      case VsmWeighting::kCount:
      case VsmWeighting::kTfIdf:
        cell += 1.0;
        break;
      case VsmWeighting::kBinary:
        cell = 1.0;
        break;
    }
  }
  std::vector<double> idf;
  if (options.weighting == VsmWeighting::kTfIdf) {
    // Per-column IDF factors; 0 for exams no patient underwent.
    std::vector<int64_t> patients_per_exam = log.PatientsPerExam();
    idf.assign(patients_per_exam.size(), 0.0);
    const double num_patients = static_cast<double>(log.num_patients());
    for (size_t e = 0; e < patients_per_exam.size(); ++e) {
      if (patients_per_exam[e] > 0) {
        idf[e] = std::log(num_patients /
                          static_cast<double>(patients_per_exam[e]));
      }
    }
  }

  CsrMatrix::Builder builder(log.num_exam_types());
  std::vector<SparseEntry> entries;
  for (auto& row : rows) {
    entries.clear();
    double norm_squared = 0.0;
    for (auto& [column, value] : row) {
      double weighted = value;
      if (!idf.empty()) weighted *= idf[column];
      if (weighted != 0.0) {
        entries.push_back({column, weighted});
        norm_squared += weighted * weighted;
      }
    }
    if (options.normalization == VsmNormalization::kL2 &&
        norm_squared > 0.0) {
      double norm = std::sqrt(norm_squared);
      for (SparseEntry& entry : entries) entry.value /= norm;
    }
    // Columns come out of the ordered map strictly increasing and in
    // range; weights are finite products of counts and IDF logs.
    EXPECT_TRUE(builder.AddRow(entries).ok());
  }
  return std::move(builder).Build();
}

TEST(VsmTest, SparseMatchesDenseForAllConfigs) {
  dataset::ExamLog log = MakeLog();
  for (VsmWeighting weighting :
       {VsmWeighting::kCount, VsmWeighting::kBinary, VsmWeighting::kTfIdf}) {
    for (VsmNormalization normalization :
         {VsmNormalization::kNone, VsmNormalization::kL2}) {
      VsmOptions options{weighting, normalization};
      Matrix dense = BuildVsm(log, options);
      Matrix from_sparse = BuildSparseVsm(log, options).ToDense();
      ASSERT_EQ(dense.rows(), from_sparse.rows());
      ASSERT_EQ(dense.cols(), from_sparse.cols());
      for (size_t r = 0; r < dense.rows(); ++r) {
        for (size_t c = 0; c < dense.cols(); ++c) {
          EXPECT_NEAR(dense.At(r, c), from_sparse.At(r, c), 1e-12)
              << "weighting=" << VsmWeightingName(weighting)
              << " norm=" << VsmNormalizationName(normalization)
              << " cell (" << r << "," << c << ")";
        }
      }
    }
  }
}

// VSM in whichever representation the measured density calls for:
// exactly one of `dense` / `sparse` is populated (`is_sparse` says
// which), `density` is the measured nnz fraction either way.
struct VsmBuild {
  Matrix dense;
  CsrMatrix sparse;
  bool is_sparse = false;
  double density = 0.0;
};

// Builds the VSM and keeps it in CSR form when the nnz density is at or
// below `density_threshold`, densifying otherwise: the representation
// choice `cluster::KMeansOptions::sparse_density_threshold` makes.
VsmBuild BuildVsmAuto(const dataset::ExamLog& log, const VsmOptions& options,
                      double density_threshold) {
  VsmBuild out;
  out.sparse = BuildSparseVsm(log, options);
  out.density = out.sparse.Density();
  if (out.density <= density_threshold) {
    out.is_sparse = true;
  } else {
    out.dense = out.sparse.ToDense();
    out.sparse = CsrMatrix();
  }
  return out;
}

TEST(VsmTest, BuildVsmAutoPicksRepresentationByDensity) {
  dataset::ExamLog log = MakeLog();
  // MakeLog's VSM is small and fairly dense; a permissive threshold
  // keeps it sparse, a zero threshold forces densification. Either way
  // the cells are the ones BuildVsm produces.
  Matrix dense = BuildVsm(log);

  VsmBuild sparse_pick = BuildVsmAuto(log, VsmOptions(), 1.0);
  EXPECT_TRUE(sparse_pick.is_sparse);
  EXPECT_GT(sparse_pick.density, 0.0);
  EXPECT_EQ(sparse_pick.dense.rows(), 0u);
  Matrix densified = sparse_pick.sparse.ToDense();
  ASSERT_EQ(densified.rows(), dense.rows());
  for (size_t r = 0; r < dense.rows(); ++r) {
    for (size_t c = 0; c < dense.cols(); ++c) {
      EXPECT_DOUBLE_EQ(densified.At(r, c), dense.At(r, c));
    }
  }

  VsmBuild dense_pick = BuildVsmAuto(log, VsmOptions(), 0.0);
  EXPECT_FALSE(dense_pick.is_sparse);
  EXPECT_EQ(dense_pick.sparse.rows(), 0u);
  EXPECT_EQ(dense_pick.density, sparse_pick.density);
  ASSERT_EQ(dense_pick.dense.rows(), dense.rows());
  for (size_t r = 0; r < dense.rows(); ++r) {
    for (size_t c = 0; c < dense.cols(); ++c) {
      EXPECT_DOUBLE_EQ(dense_pick.dense.At(r, c), dense.At(r, c));
    }
  }
}

TEST(VsmTest, PatientWithoutRecordsIsZeroRow) {
  std::vector<dataset::Patient> patients{{0, 50, -1}, {1, 60, -1}};
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  std::vector<dataset::ExamRecord> records{{0, a, 1}};
  dataset::ExamLog log(std::move(patients), std::move(dictionary),
                       std::move(records));
  Matrix vsm = BuildVsm(log, {VsmWeighting::kCount, VsmNormalization::kL2});
  EXPECT_DOUBLE_EQ(vsm.At(1, 0), 0.0);  // Zero row survives normalization.
}

TEST(VsmTest, EnumNames) {
  EXPECT_STREQ(VsmWeightingName(VsmWeighting::kTfIdf), "tfidf");
  EXPECT_STREQ(VsmNormalizationName(VsmNormalization::kL2), "l2");
}

}  // namespace
}  // namespace transform
}  // namespace adahealth
