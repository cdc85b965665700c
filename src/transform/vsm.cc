#include "transform/vsm.h"

#include <cmath>


namespace adahealth {
namespace transform {

namespace {

/// Per-column IDF factors; 0 for exams no patient underwent.
std::vector<double> IdfFactors(const dataset::ExamLog& log) {
  std::vector<int64_t> patients_per_exam = log.PatientsPerExam();
  std::vector<double> idf(patients_per_exam.size(), 0.0);
  const double num_patients = static_cast<double>(log.num_patients());
  for (size_t e = 0; e < patients_per_exam.size(); ++e) {
    if (patients_per_exam[e] > 0) {
      idf[e] = std::log(num_patients /
                        static_cast<double>(patients_per_exam[e]));
    }
  }
  return idf;
}

}  // namespace

Matrix BuildVsm(const dataset::ExamLog& log, const VsmOptions& options) {
  Matrix vsm(log.num_patients(), log.num_exam_types());
  for (const auto& record : log.records()) {
    double& cell = vsm.At(static_cast<size_t>(record.patient),
                          static_cast<size_t>(record.exam_type));
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
  if (options.weighting == VsmWeighting::kTfIdf) {
    std::vector<double> idf = IdfFactors(log);
    for (size_t r = 0; r < vsm.rows(); ++r) {
      std::span<double> row = vsm.Row(r);
      for (size_t c = 0; c < vsm.cols(); ++c) row[c] *= idf[c];
    }
  }
  if (options.normalization == VsmNormalization::kL2) {
    vsm.L2NormalizeRows();
  }
  return vsm;
}

const char* VsmWeightingName(VsmWeighting weighting) {
  switch (weighting) {
    case VsmWeighting::kCount:
      return "count";
    case VsmWeighting::kBinary:
      return "binary";
    case VsmWeighting::kTfIdf:
      return "tfidf";
  }
  return "?";
}

const char* VsmNormalizationName(VsmNormalization normalization) {
  switch (normalization) {
    case VsmNormalization::kNone:
      return "none";
    case VsmNormalization::kL2:
      return "l2";
  }
  return "?";
}

}  // namespace transform
}  // namespace adahealth
