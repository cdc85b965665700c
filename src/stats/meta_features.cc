#include "stats/meta_features.h"

#include <utility>
#include <vector>

#include "stats/descriptors.h"

namespace adahealth {
namespace stats {

using common::Json;

Json MetaFeatures::ToJson() const {
  Json::Object object;
  object["num_patients"] = Json(num_patients);
  object["num_exam_types"] = Json(num_exam_types);
  object["num_records"] = Json(num_records);
  object["density"] = Json(density);
  object["mean_records_per_patient"] = Json(mean_records_per_patient);
  object["stddev_records_per_patient"] = Json(stddev_records_per_patient);
  object["exam_frequency_entropy"] = Json(exam_frequency_entropy);
  object["exam_frequency_gini"] = Json(exam_frequency_gini);
  object["top20_coverage"] = Json(top20_coverage);
  object["top40_coverage"] = Json(top40_coverage);
  object["mean_patient_coverage"] = Json(mean_patient_coverage);
  return Json(std::move(object));
}

common::StatusOr<MetaFeatures> MetaFeatures::FromJson(const Json& json) {
  if (!json.is_object()) {
    return common::InvalidArgumentError("meta-features JSON must be object");
  }
  MetaFeatures out;
  auto read_int = [&](const char* key, int64_t& target) {
    const Json* field = json.Find(key);
    if (field != nullptr && field->is_number()) {
      target = static_cast<int64_t>(field->AsDouble());
    }
  };
  auto read_double = [&](const char* key, double& target) {
    const Json* field = json.Find(key);
    if (field != nullptr && field->is_number()) target = field->AsDouble();
  };
  read_int("num_patients", out.num_patients);
  read_int("num_exam_types", out.num_exam_types);
  read_int("num_records", out.num_records);
  read_double("density", out.density);
  read_double("mean_records_per_patient", out.mean_records_per_patient);
  read_double("stddev_records_per_patient", out.stddev_records_per_patient);
  read_double("exam_frequency_entropy", out.exam_frequency_entropy);
  read_double("exam_frequency_gini", out.exam_frequency_gini);
  read_double("top20_coverage", out.top20_coverage);
  read_double("top40_coverage", out.top40_coverage);
  read_double("mean_patient_coverage", out.mean_patient_coverage);
  return out;
}

std::vector<double> MetaFeatures::ToVector() const {
  return {static_cast<double>(num_patients),
          static_cast<double>(num_exam_types),
          static_cast<double>(num_records),
          density,
          mean_records_per_patient,
          stddev_records_per_patient,
          exam_frequency_entropy,
          exam_frequency_gini,
          top20_coverage,
          top40_coverage,
          mean_patient_coverage};
}

std::vector<std::string> MetaFeatures::FeatureNames() {
  return {"num_patients",
          "num_exam_types",
          "num_records",
          "density",
          "mean_records_per_patient",
          "stddev_records_per_patient",
          "exam_frequency_entropy",
          "exam_frequency_gini",
          "top20_coverage",
          "top40_coverage",
          "mean_patient_coverage"};
}

MetaFeatures ComputeMetaFeatures(const dataset::ExamLog& log) {
  MetaFeatures features;
  features.num_patients = static_cast<int64_t>(log.num_patients());
  features.num_exam_types = static_cast<int64_t>(log.num_exam_types());
  features.num_records = static_cast<int64_t>(log.num_records());

  // Density of the patient x exam count matrix: its non-zero cells are
  // the distinct (patient, exam) pairs, which PatientsPerExam counts
  // per exam.
  const std::vector<int64_t> patients_per_exam = log.PatientsPerExam();
  int64_t cells = 0;
  for (int64_t count : patients_per_exam) cells += count;
  const double total_cells = static_cast<double>(log.num_patients()) *
                             static_cast<double>(log.num_exam_types());
  features.density =
      total_cells > 0.0 ? static_cast<double>(cells) / total_cells : 0.0;

  Summary per_patient = Summarize(log.RecordsPerPatient());
  features.mean_records_per_patient = per_patient.mean;
  features.stddev_records_per_patient = per_patient.stddev;

  std::vector<int64_t> frequencies = log.ExamFrequencies();
  features.exam_frequency_entropy = NormalizedEntropy(frequencies);
  features.exam_frequency_gini = GiniCoefficient(frequencies);
  features.top20_coverage = TopFractionCoverage(frequencies, 0.20);
  features.top40_coverage = TopFractionCoverage(frequencies, 0.40);

  double coverage_sum = 0.0;
  for (int64_t c : patients_per_exam) {
    coverage_sum += log.num_patients() > 0
                        ? static_cast<double>(c) /
                              static_cast<double>(log.num_patients())
                        : 0.0;
  }
  features.mean_patient_coverage =
      patients_per_exam.empty()
          ? 0.0
          : coverage_sum / static_cast<double>(patients_per_exam.size());
  return features;
}

}  // namespace stats
}  // namespace adahealth
