#include "core/feedback_sim.h"

#include <set>

#include <gtest/gtest.h>
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace core {
namespace {

stats::MetaFeatures CohortFeatures() {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  EXPECT_TRUE(cohort.ok());
  return stats::ComputeMetaFeatures(cohort->log);
}

// The noise-free label of a knowledge item: goal affinity + quality
// term, thresholded to {low, medium, high} like FeedbackSimulator's
// labels.
Interest LabelItem(const PersonaConfig& persona, const KnowledgeItem& item) {
  const double utility =
      persona.goal_affinity[static_cast<size_t>(item.goal)] +
      persona.quality_weight * item.quality;
  if (utility >= persona.high_threshold) return Interest::kHigh;
  if (utility >= persona.medium_threshold) return Interest::kMedium;
  return Interest::kLow;
}

TEST(FeedbackSimTest, QualityDrivesItemLabels) {
  PersonaConfig persona = DiabetologistPersona();
  KnowledgeItem weak;
  weak.goal = EndGoal::kPatientGrouping;
  weak.quality = 0.0;
  KnowledgeItem strong = weak;
  strong.quality = 1.0;
  Interest weak_label = LabelItem(persona, weak);
  Interest strong_label = LabelItem(persona, strong);
  EXPECT_GE(static_cast<int>(strong_label), static_cast<int>(weak_label));
  EXPECT_EQ(strong_label, Interest::kHigh);
}

TEST(FeedbackSimTest, GoalAffinityDrivesLabels) {
  PersonaConfig persona = HospitalAdministratorPersona();
  persona.noise_stddev = 0.0;
  FeedbackSimulator simulator(persona, 2);
  stats::MetaFeatures features = CohortFeatures();
  // The administrator persona has far higher affinity for resource
  // planning than for interaction discovery.
  double planning =
      simulator.GoalUtility(features, EndGoal::kResourcePlanning);
  double interactions =
      simulator.GoalUtility(features, EndGoal::kInteractionDiscovery);
  EXPECT_GT(planning, interactions);
}

TEST(FeedbackSimTest, UtilityRespondsToDatasetShape) {
  PersonaConfig persona = DiabetologistPersona();
  persona.noise_stddev = 0.0;
  FeedbackSimulator simulator(persona, 3);
  stats::MetaFeatures sparse = CohortFeatures();
  stats::MetaFeatures dense = sparse;
  dense.density = 0.95;
  // Sparser data -> clustering more interesting (per the oracle).
  EXPECT_GT(simulator.GoalUtility(sparse, EndGoal::kPatientGrouping),
            simulator.GoalUtility(dense, EndGoal::kPatientGrouping));
}

TEST(FeedbackSimTest, DeterministicForSeed) {
  stats::MetaFeatures features = CohortFeatures();
  FeedbackSimulator a(ClinicalResearcherPersona(), 7);
  FeedbackSimulator b(ClinicalResearcherPersona(), 7);
  for (int32_t g = 0; g < kNumEndGoals; ++g) {
    EXPECT_EQ(a.LabelGoal(features, static_cast<EndGoal>(g)),
              b.LabelGoal(features, static_cast<EndGoal>(g)));
  }
}

TEST(FeedbackSimTest, NoiseProducesLabelVariation) {
  stats::MetaFeatures features = CohortFeatures();
  PersonaConfig persona = DiabetologistPersona();
  persona.noise_stddev = 1.0;
  FeedbackSimulator simulator(persona, 11);
  std::set<Interest> labels;
  for (int i = 0; i < 100; ++i) {
    labels.insert(simulator.LabelGoal(features, EndGoal::kPatientGrouping));
  }
  EXPECT_GT(labels.size(), 1u);
}

TEST(FeedbackSimTest, ThresholdsOrderLabels) {
  PersonaConfig persona;
  persona.goal_affinity = {0.0, 0.0, 0.0, 0.0, 0.0};
  persona.quality_weight = 1.0;
  persona.noise_stddev = 0.0;
  persona.high_threshold = 0.8;
  persona.medium_threshold = 0.4;
  KnowledgeItem item;
  item.goal = EndGoal::kComplianceOutcome;
  item.quality = 0.2;
  EXPECT_EQ(LabelItem(persona, item), Interest::kLow);
  item.quality = 0.6;
  EXPECT_EQ(LabelItem(persona, item), Interest::kMedium);
  item.quality = 0.9;
  EXPECT_EQ(LabelItem(persona, item), Interest::kHigh);
}

TEST(FeedbackSimTest, BuiltInPersonasAreDistinct) {
  EXPECT_NE(DiabetologistPersona().name,
            HospitalAdministratorPersona().name);
  EXPECT_NE(DiabetologistPersona().goal_affinity,
            HospitalAdministratorPersona().goal_affinity);
}

}  // namespace
}  // namespace core
}  // namespace adahealth
