// Physician-feedback simulator.
//
// The paper's K-DB is enriched "with the help of a domain expert"
// assigning each knowledge item a degree of interestingness
// {high, medium, low}, and differences among physicians ("diverse
// background and specialization") drive end-goal selection. We have no
// physicians, so feedback is generated by persona oracles: each
// persona holds latent end-goal affinities and a quality sensitivity;
// labels are thresholded noisy utilities. This preserves the paper's
// learnability claim (more interactions -> better interest models)
// while keeping the ground truth controllable.
#ifndef ADAHEALTH_CORE_FEEDBACK_SIM_H_
#define ADAHEALTH_CORE_FEEDBACK_SIM_H_

#include <array>
#include <string>

#include "common/rng.h"
#include "core/knowledge.h"
#include "stats/meta_features.h"

namespace adahealth {
namespace core {

/// Latent preference model of one simulated physician.
struct PersonaConfig {
  std::string name;
  /// Base affinity per end-goal (indexed by EndGoal).
  std::array<double, kNumEndGoals> goal_affinity = {0, 0, 0, 0, 0};
  /// Weight of an item's algorithmic quality in the utility.
  double quality_weight = 1.0;
  /// Stddev of the Gaussian label noise.
  double noise_stddev = 0.25;
  /// Utility thresholds: >= high_threshold -> high,
  /// >= medium_threshold -> medium, else low.
  double high_threshold = 1.2;
  double medium_threshold = 0.6;
};

/// Deterministic (seeded) feedback oracle for one persona.
class FeedbackSimulator {
 public:
  FeedbackSimulator(PersonaConfig persona, uint64_t seed)
      : persona_(std::move(persona)), rng_(seed) {}

  const PersonaConfig& persona() const { return persona_; }

  /// Labels an (analysis end-goal, dataset) pair: the utility adds
  /// dataset-dependent terms (e.g. sparser datasets make clustering
  /// more interesting to this persona), so interest is learnable from
  /// (meta-features, goal) inputs.
  Interest LabelGoal(const stats::MetaFeatures& features, EndGoal goal);

  /// The noise-free utility underlying LabelGoal (exposed for tests).
  double GoalUtility(const stats::MetaFeatures& features,
                     EndGoal goal) const;

 private:
  PersonaConfig persona_;
  common::Rng rng_;
};

/// Built-in personas used by examples and benches.
PersonaConfig DiabetologistPersona();
PersonaConfig ClinicalResearcherPersona();
PersonaConfig HospitalAdministratorPersona();

}  // namespace core
}  // namespace adahealth

#endif  // ADAHEALTH_CORE_FEEDBACK_SIM_H_
