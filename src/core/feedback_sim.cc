#include "core/feedback_sim.h"

#include <algorithm>

namespace adahealth {
namespace core {

namespace {

Interest Threshold(const PersonaConfig& persona, double utility) {
  if (utility >= persona.high_threshold) return Interest::kHigh;
  if (utility >= persona.medium_threshold) return Interest::kMedium;
  return Interest::kLow;
}

}  // namespace

double FeedbackSimulator::GoalUtility(const stats::MetaFeatures& features,
                                      EndGoal goal) const {
  double utility = persona_.goal_affinity[static_cast<size_t>(goal)];
  // Dataset-shape interactions: each goal has a statistical regime in
  // which this persona finds it worthwhile.
  switch (goal) {
    case EndGoal::kPatientGrouping:
      // Sparse, high-variability cohorts make grouping informative.
      utility += 0.8 * (1.0 - features.density);
      break;
    case EndGoal::kCommonExamPatterns:
      // Skewed exam frequencies mean strong common panels exist.
      utility += 0.8 * features.top20_coverage;
      break;
    case EndGoal::kComplianceOutcome:
      // Needs many observations per patient.
      utility +=
          0.05 * std::min(features.mean_records_per_patient, 20.0);
      break;
    case EndGoal::kInteractionDiscovery:
      // Needs co-occurrence: long histories and broad coverage.
      utility += 0.04 * std::min(features.mean_records_per_patient, 20.0) +
                 0.4 * features.mean_patient_coverage;
      break;
    case EndGoal::kResourcePlanning:
      // Concentrated demand (high Gini) simplifies planning wins.
      utility += 0.8 * features.exam_frequency_gini;
      break;
  }
  return utility;
}

Interest FeedbackSimulator::LabelGoal(const stats::MetaFeatures& features,
                                      EndGoal goal) {
  double utility =
      GoalUtility(features, goal) + rng_.Normal(0.0, persona_.noise_stddev);
  return Threshold(persona_, utility);
}

PersonaConfig DiabetologistPersona() {
  PersonaConfig persona;
  persona.name = "diabetologist";
  persona.goal_affinity = {0.7, 0.6, 0.5, 0.4, 0.1};
  persona.quality_weight = 0.8;
  persona.noise_stddev = 0.20;
  return persona;
}

PersonaConfig ClinicalResearcherPersona() {
  PersonaConfig persona;
  persona.name = "clinical_researcher";
  persona.goal_affinity = {0.5, 0.5, 0.6, 0.8, 0.1};
  persona.quality_weight = 1.0;
  persona.noise_stddev = 0.20;
  return persona;
}

PersonaConfig HospitalAdministratorPersona() {
  PersonaConfig persona;
  persona.name = "hospital_administrator";
  persona.goal_affinity = {0.2, 0.3, 0.4, 0.2, 0.9};
  persona.quality_weight = 0.6;
  persona.noise_stddev = 0.20;
  return persona;
}

}  // namespace core
}  // namespace adahealth
