// Identification of viable end-goals — "the core and one of the most
// innovative contributions of the ADA-HEALTH architecture" (§III).
// Three components, as in the paper:
//  (i)  the K-DB stores past feedback (kdb::Schema::kFeedback);
//  (ii) an algorithm identifies *viable* end-goals for a dataset via
//       formal rules over its statistical characterization;
//  (iii) an algorithm selects the end-goals *of interest* for a user,
//        "addressed again as a classification problem, thus, the model
//        is trained by previous user interactions".
#ifndef ADAHEALTH_CORE_ENDGOAL_H_
#define ADAHEALTH_CORE_ENDGOAL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/knowledge.h"
#include "kdb/database.h"
#include "ml/classifier.h"
#include "stats/meta_features.h"

namespace adahealth {
namespace core {

/// A viable end-goal with the rule rationale that admitted it.
struct ViableGoal {
  EndGoal goal = EndGoal::kPatientGrouping;
  std::string rationale;
};

/// Applies the viability rules to a dataset characterization. Each
/// rule checks that the dataset can feasibly support the analysis
/// (enough patients for grouping, enough co-occurrence for pattern and
/// interaction mining, ...).
std::vector<ViableGoal> IdentifyViableEndGoals(
    const stats::MetaFeatures& features);

/// A recommended goal: viable, with predicted user interest.
struct GoalRecommendation {
  ViableGoal viable;
  Interest predicted_interest = Interest::kMedium;
};

/// Feedback-record helpers (K-DB "feedback" collection schema:
/// {dataset_id, user, features{...}, goal, interest}).
kdb::Document MakeGoalFeedbackDocument(const std::string& dataset_id,
                                       const std::string& user,
                                       const stats::MetaFeatures& features,
                                       EndGoal goal, Interest interest);

/// End-goal interest engine: trains a classifier on the K-DB feedback
/// collection and predicts the interest of (dataset, goal) pairs.
class EndGoalEngine {
 public:
  /// `factory` builds the interest model; defaults to a decision tree.
  explicit EndGoalEngine(ml::ClassifierFactory factory = nullptr);

  /// Trains from all parseable documents of `feedback`. Requires at
  /// least two distinct interest labels; FAILED_PRECONDITION otherwise.
  [[nodiscard]] common::Status TrainFromFeedback(const kdb::Collection& feedback);

  // ada-lint: allow(unreached-symbol) endgoal_test checks training
  // state with it.
  bool trained() const { return trained_; }
  /// Number of feedback records used by the last training.
  // ada-lint: allow(unreached-symbol) endgoal_test checks the
  // training set size with it.
  size_t training_samples() const { return training_samples_; }

  /// Predicts interest for one (dataset, goal) pair.
  /// FAILED_PRECONDITION before training.
  [[nodiscard]] common::StatusOr<Interest> PredictInterest(
      const stats::MetaFeatures& features, EndGoal goal) const;

  /// Viable goals ranked by predicted interest (descending; rule order
  /// breaks ties). Before training, every goal gets kMedium.
  [[nodiscard]] common::StatusOr<std::vector<GoalRecommendation>> RecommendGoals(
      const stats::MetaFeatures& features) const;

  /// Model input encoding: meta-features ++ one-hot goal.
  static std::vector<double> EncodeExample(
      const stats::MetaFeatures& features, EndGoal goal);

 private:
  ml::ClassifierFactory factory_;
  std::unique_ptr<ml::Classifier> model_;
  bool trained_ = false;
  size_t training_samples_ = 0;
};

}  // namespace core
}  // namespace adahealth

#endif  // ADAHEALTH_CORE_ENDGOAL_H_
