// Vector Space Model construction (paper §IV-A: "a single
// pre-processing block capable of tailoring a given dataset to a Vector
// Space Model (VSM) representation, which is particularly suited to
// handle sparse datasets").
//
// Each patient becomes one vector whose components count (or weight)
// the examinations they underwent.
#ifndef ADAHEALTH_TRANSFORM_VSM_H_
#define ADAHEALTH_TRANSFORM_VSM_H_

#include "common/status.h"
#include "dataset/exam_log.h"
#include "transform/matrix.h"

namespace adahealth {
namespace transform {

/// Component weighting scheme of the VSM.
enum class VsmWeighting {
  /// Raw occurrence counts (the paper's preliminary implementation:
  /// "number of times he/she underwent each examination").
  kCount,
  /// 1 if the patient underwent the exam at least once, else 0.
  kBinary,
  /// count * log(num_patients / patients_with_exam); the classic
  /// TF-IDF weighting, de-emphasizing ubiquitous checkups.
  kTfIdf,
};

/// Row post-processing of the VSM.
enum class VsmNormalization {
  kNone,
  /// Scale each patient vector to unit L2 norm.
  kL2,
};

struct VsmOptions {
  VsmWeighting weighting = VsmWeighting::kCount;
  VsmNormalization normalization = VsmNormalization::kNone;
};

/// Builds the dense patient x exam-type VSM of `log`.
/// Rows are indexed by PatientId, columns by ExamTypeId.
Matrix BuildVsm(const dataset::ExamLog& log,
                const VsmOptions& options = VsmOptions());

const char* VsmWeightingName(VsmWeighting weighting);
const char* VsmNormalizationName(VsmNormalization normalization);

}  // namespace transform
}  // namespace adahealth

#endif  // ADAHEALTH_TRANSFORM_VSM_H_
