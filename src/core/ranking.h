// Interactive knowledge ranking (paper §III, "Knowledge navigation"):
// orders extracted knowledge items by estimated interest and adapts the
// order as user feedback arrives — both to the rated item itself and,
// generalizing, to items of the same kind and end-goal.
#ifndef ADAHEALTH_CORE_RANKING_H_
#define ADAHEALTH_CORE_RANKING_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/knowledge.h"

namespace adahealth {
namespace core {

struct RankerOptions {
  /// Blend weight of direct item feedback vs. base quality.
  double feedback_weight = 0.5;
  /// Weight of the kind-level bias learned from feedback.
  double kind_bias_weight = 0.2;
  /// Weight of the goal-level bias learned from feedback.
  double goal_bias_weight = 0.2;
};

/// Feedback-adaptive ranker over a set of knowledge items.
class KnowledgeRanker {
 public:
  explicit KnowledgeRanker(RankerOptions options = RankerOptions())
      : options_(options) {}

  /// Registers items (ids must be unique; duplicates are rejected).
  [[nodiscard]] common::Status AddItems(const std::vector<KnowledgeItem>& items);

  size_t size() const { return items_.size(); }

  /// Records user feedback for an item; NOT_FOUND on unknown ids.
  /// Updates the item's own score and the kind/goal biases.
  [[nodiscard]] common::Status RecordFeedback(const std::string& item_id,
                                Interest interest);

  /// Current score of an item (NOT_FOUND on unknown ids).
  // ada-lint: allow(unreached-symbol) RankerTest reads the scores
  // that feedback moves with it.
  [[nodiscard]] common::StatusOr<double> ScoreOf(const std::string& item_id) const;

  /// Items ordered by descending score; ties broken by id for
  /// determinism. Item `interest` fields are updated to the feedback
  /// label when one was recorded.
  std::vector<KnowledgeItem> Ranked() const;

 private:
  struct Entry {
    KnowledgeItem item;
    bool has_feedback = false;
    double feedback_value = 0.0;  // Mean of feedback in [0, 1].
    int64_t feedback_count = 0;
  };

  static double InterestValue(Interest interest) {
    return static_cast<double>(static_cast<int32_t>(interest)) / 2.0;
  }

  double Score(const Entry& entry) const;

  RankerOptions options_;
  std::map<std::string, Entry> items_;
  // Aggregated feedback per kind / per goal: (sum, count).
  std::map<std::string, std::pair<double, int64_t>> kind_feedback_;
  std::map<int32_t, std::pair<double, int64_t>> goal_feedback_;
};

}  // namespace core
}  // namespace adahealth

#endif  // ADAHEALTH_CORE_RANKING_H_
