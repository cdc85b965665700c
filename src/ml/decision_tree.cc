#include "ml/decision_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "ml/metrics.h"

namespace adahealth {
namespace ml {

using common::Status;
using transform::Matrix;

namespace {

using Entry = PresortedFeatures::Entry;

/// The child a row of the node being split goes to. Rows absent from the
/// split feature's segment hold a zero there and stay kZero.
enum class Side : uint8_t { kZero, kLeft, kRight };

/// Grows one tree on a subset of a presorted matrix's rows. It owns
/// every buffer of one fit, so they are freed when the fit returns.
class PresortedBuilder {
 public:
  using Node = DecisionTreeClassifier::Node;

  /// `rows` is strictly ascending; `labels` is indexed by presorted row.
  PresortedBuilder(const PresortedFeatures& presorted,
                   const std::vector<size_t>& rows,
                   const std::vector<int32_t>& labels, int32_t num_classes,
                   const DecisionTreeOptions& options,
                   std::vector<Node>& nodes, int32_t& depth)
      : num_classes_(static_cast<size_t>(num_classes)),
        options_(options),
        nodes_(nodes),
        depth_(depth) {
    CopyRows(presorted, rows, labels);
  }

  void Build() {
    std::vector<int64_t> counts(num_classes_, 0);
    for (int32_t label : labels_) ++counts[static_cast<size_t>(label)];
    const std::span<const size_t> offsets(offsets_);
    BuildNode(offsets.first(offsets.size() - 1), offsets.subspan(1),
              std::move(counts), static_cast<int64_t>(labels_.size()), 0);
  }

 private:
  /// Copies the entries of `rows` out of every presorted segment into
  /// this fit's segment [offsets_[f], offsets_[f + 1]) of entries_, each
  /// renumbered to its position in `rows` and labeled. Positions grow
  /// with rows, so every segment stays sorted by (value, row).
  void CopyRows(const PresortedFeatures& presorted,
                const std::vector<size_t>& rows,
                const std::vector<int32_t>& labels) {
    constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> position(presorted.rows(), kAbsent);
    labels_.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      position[rows[i]] = static_cast<uint32_t>(i);
      labels_[i] = labels[rows[i]];
    }
    const size_t num_features = presorted.cols();
    offsets_.assign(num_features + 1, 0);
    // One slot of slack: the loop below writes every entry and advances
    // only past the kept ones.
    entries_.resize(presorted.size() + 1);
    Entry* out = entries_.data();
    size_t max_segment = 0;
    for (size_t f = 0; f < num_features; ++f) {
      const Entry* first = out;
      for (const Entry& entry : presorted.Segment(f)) {
        const uint32_t row = position[entry.row];
        *out = {entry.value, row, labels[entry.row]};
        out += row != kAbsent;
      }
      offsets_[f + 1] = static_cast<size_t>(out - entries_.data());
      max_segment = std::max(max_segment, static_cast<size_t>(out - first));
    }
    entries_.resize(offsets_.back());
    scratch_.resize(max_segment);
    sides_.assign(rows.size(), Side::kZero);
  }

  /// Grows the node whose part of feature f's segment is
  /// [begin[f], end[f]); `counts` is its class histogram, `n` its size.
  int32_t BuildNode(std::span<const size_t> begin, std::span<const size_t> end,
                    std::vector<int64_t> counts, int64_t n, int32_t depth) {
    ADA_CHECK_GT(n, 0);
    depth_ = std::max(depth_, depth);
    const int32_t node_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();

    int32_t majority = 0;
    for (size_t c = 1; c < num_classes_; ++c) {
      if (counts[c] > counts[static_cast<size_t>(majority)]) {
        majority = static_cast<int32_t>(c);
      }
    }
    nodes_[static_cast<size_t>(node_id)].label = majority;

    const double node_impurity = GiniImpurity(counts);
    if (depth >= options_.max_depth || n < options_.min_samples_split ||
        node_impurity == 0.0) {
      return node_id;
    }

    // Best split search: per feature, one ascending sweep over the
    // node's distinct values, tracking class counts on the left.
    double best_gain = kMinImpurityDecrease;
    int32_t best_feature = -1;
    double best_threshold = 0.0;
    int64_t best_left_n = 0;
    std::vector<int64_t> best_left(num_classes_);
    std::vector<int64_t> left(num_classes_);
    std::vector<int64_t> right(num_classes_);
    std::vector<int64_t> zeros(num_classes_);
    // The sweep also keeps exact sums of squared class counts on each
    // side. In exact arithmetic a split's weighted impurity is 1 - q/n
    // with q = left_sq/L + right_sq/R, so its gain can exceed best_gain
    // only if q > n (1 - (node_impurity - best_gain)). `q_limit` lowers
    // that bound by `screen_margin`, which is several times the rounding
    // error of GiniImpurity's arithmetic (about classes + 10 units in the
    // last place) plus that of the screen's own products; a split below
    // it cannot win, so skipping its exact evaluation changes nothing.
    int64_t node_sq = 0;
    for (int64_t count : counts) node_sq += count * count;
    const double screen_margin =
        4.0 * static_cast<double>(num_classes_ + 32) *
        std::numeric_limits<double>::epsilon();
    const auto limit_for = [&](double gain) {
      return static_cast<double>(n) *
             (1.0 - (node_impurity - gain) - screen_margin);
    };
    double q_limit = limit_for(best_gain);
    // False when the split with `left_n` samples on the left is too small
    // or provably loses: q < q_limit, multiplied through by L * R.
    const auto may_win = [&](int64_t left_n, int64_t left_sq,
                             int64_t right_sq) {
      const int64_t right_n = n - left_n;
      if (left_n < options_.min_samples_leaf ||
          right_n < options_.min_samples_leaf) {
        return false;
      }
      const double l = static_cast<double>(left_n);
      const double r = static_cast<double>(right_n);
      return !(static_cast<double>(left_sq) * r +
                   static_cast<double>(right_sq) * l <
               q_limit * l * r);
    };
    // Evaluates feature f's split between `value` (the left side's
    // largest) and `next_value` (the right side's smallest), with the
    // left side's class counts in `left`.
    const auto evaluate = [&](size_t f, double value, double next_value,
                              int64_t left_n) {
      const int64_t right_n = n - left_n;
      // Weighted impurity of the split.
      const double left_impurity = GiniImpurity(left);
      for (size_t c = 0; c < num_classes_; ++c) right[c] = counts[c] - left[c];
      const double right_impurity = GiniImpurity(right);
      const double weighted =
          (static_cast<double>(left_n) * left_impurity +
           static_cast<double>(right_n) * right_impurity) /
          static_cast<double>(n);
      const double gain = node_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int32_t>(f);
        best_threshold = 0.5 * (value + next_value);
        // The midpoint of two values one ulp apart can round up to
        // next_value (and a sum of huge magnitudes overflows to ±inf);
        // either would send both sides of the split the same way.
        // `value` itself always separates them under the `<=` rule.
        if (!(value <= best_threshold && best_threshold < next_value)) {
          best_threshold = value;
        }
        best_left = left;
        best_left_n = left_n;
        q_limit = limit_for(best_gain);
      }
    };
    for (size_t f = 0; f < begin.size(); ++f) {
      const Entry* first = entries_.data() + begin[f];
      const Entry* last = entries_.data() + end[f];
      if (first == last) continue;  // All zeros: constant in this node.
      zeros = counts;
      for (const Entry* entry = first; entry != last; ++entry) {
        --zeros[static_cast<size_t>(entry->label)];
      }
      const int64_t zero_n = n - (last - first);
      const Entry* positives = std::partition_point(
          first, last, [](const Entry& entry) { return entry.value < 0.0; });
      std::fill(left.begin(), left.end(), 0);
      int64_t left_n = 0;
      int64_t left_sq = 0;
      int64_t right_sq = node_sq;
      double previous = 0.0;
      // Negatives, then the zero bucket (when not empty), then positives.
      for (const Entry* entry = first;; ++entry) {
        if (entry == positives && zero_n > 0) {
          if (left_n > 0 && may_win(left_n, left_sq, right_sq)) {
            evaluate(f, previous, 0.0, left_n);
          }
          left_sq = 0;
          right_sq = 0;
          for (size_t c = 0; c < num_classes_; ++c) {
            left[c] += zeros[c];
            left_sq += left[c] * left[c];
            right_sq += (counts[c] - left[c]) * (counts[c] - left[c]);
          }
          left_n += zero_n;
          previous = 0.0;
        }
        if (entry == last) break;
        if (left_n > 0 && entry->value != previous &&
            may_win(left_n, left_sq, right_sq)) {
          evaluate(f, previous, entry->value, left_n);
        }
        const size_t c = static_cast<size_t>(entry->label);
        left_sq += 2 * left[c] + 1;
        right_sq -= 2 * (counts[c] - left[c]) - 1;
        ++left[c];
        ++left_n;
        previous = entry->value;
      }
    }
    if (best_feature < 0) return node_id;

    // Split every segment in place by the chosen feature's sides.
    const size_t split = static_cast<size_t>(best_feature);
    const Side zero_side = 0.0 <= best_threshold ? Side::kLeft : Side::kRight;
    for (size_t i = begin[split]; i < end[split]; ++i) {
      sides_[entries_[i].row] =
          entries_[i].value <= best_threshold ? Side::kLeft : Side::kRight;
    }
    std::vector<size_t> middle(begin.size());
    for (size_t f = 0; f < begin.size(); ++f) {
      middle[f] = Partition(begin[f], end[f], zero_side);
    }
    for (size_t i = begin[split]; i < end[split]; ++i) {
      sides_[entries_[i].row] = Side::kZero;
    }
    // The threshold must send exactly the chosen boundary's left side
    // left: nonzero entries up to it, plus the zeros when 0 <= it.
    const int64_t split_zero_n =
        n - static_cast<int64_t>(end[split] - begin[split]);
    ADA_CHECK_EQ(static_cast<int64_t>(middle[split] - begin[split]) +
                     (zero_side == Side::kLeft ? split_zero_n : 0),
                 best_left_n);

    for (size_t c = 0; c < num_classes_; ++c) counts[c] -= best_left[c];
    nodes_[static_cast<size_t>(node_id)].feature = best_feature;
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int32_t left_id = BuildNode(begin, middle, std::move(best_left),
                                      best_left_n, depth + 1);
    const int32_t right_id = BuildNode(middle, end, std::move(counts),
                                       n - best_left_n, depth + 1);
    nodes_[static_cast<size_t>(node_id)].left = left_id;
    nodes_[static_cast<size_t>(node_id)].right = right_id;
    return node_id;
  }

  /// Stably moves the left-going entries of [begin, end) to its front
  /// and returns where the right-going ones start.
  size_t Partition(size_t begin, size_t end, Side zero_side) {
    Entry* out = entries_.data() + begin;
    Entry* spill = scratch_.data();
    for (size_t i = begin; i < end; ++i) {
      const Entry entry = entries_[i];
      const Side side = sides_[entry.row];
      if ((side == Side::kZero ? zero_side : side) == Side::kLeft) {
        *out++ = entry;
      } else {
        *spill++ = entry;
      }
    }
    std::copy(scratch_.data(), spill, out);
    return static_cast<size_t>(out - entries_.data());
  }

  const size_t num_classes_;
  const DecisionTreeOptions& options_;
  std::vector<Node>& nodes_;
  int32_t& depth_;
  /// The fit's labels, by position in its rows.
  std::vector<int32_t> labels_;
  std::vector<size_t> offsets_;
  std::vector<Entry> entries_;
  std::vector<Entry> scratch_;
  std::vector<Side> sides_;
};

}  // namespace

PresortedFeatures::PresortedFeatures(const Matrix& features)
    : rows_(features.rows()) {
  ADA_CHECK_LE(rows_, static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  const size_t num_features = features.cols();
  offsets_.assign(num_features + 1, 0);
  for (size_t row = 0; row < rows_; ++row) {
    const std::span<const double> values = features.Row(row);
    for (size_t f = 0; f < num_features; ++f) {
      offsets_[f + 1] += static_cast<size_t>(values[f] != 0.0);
    }
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  entries_.resize(offsets_.back());
  std::vector<size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (size_t row = 0; row < rows_; ++row) {
    const std::span<const double> values = features.Row(row);
    for (size_t f = 0; f < num_features; ++f) {
      if (values[f] != 0.0) {
        entries_[next[f]++] = {values[f], static_cast<uint32_t>(row), 0};
      }
    }
  }
  for (size_t f = 0; f < num_features; ++f) {
    std::sort(entries_.begin() + static_cast<ptrdiff_t>(offsets_[f]),
              entries_.begin() + static_cast<ptrdiff_t>(offsets_[f + 1]),
              [](const Entry& a, const Entry& b) {
                return a.value < b.value ||
                       (a.value == b.value && a.row < b.row);
              });
  }
}

Status DecisionTreeClassifier::Fit(const Matrix& features,
                                   const std::vector<int32_t>& labels,
                                   int32_t num_classes) {
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Status valid = Validate(features, rows, labels, num_classes);
  if (!valid.ok()) return valid;
  Grow(PresortedFeatures(features), rows, labels, num_classes);
  return common::OkStatus();
}

Status DecisionTreeClassifier::FitRows(const Matrix& features,
                                       const std::vector<size_t>& rows,
                                       const std::vector<int32_t>& labels,
                                       int32_t num_classes) {
  Status valid = Validate(features, rows, labels, num_classes);
  if (!valid.ok()) return valid;
  if (presorted_ == nullptr) {
    Grow(PresortedFeatures(features), rows, labels, num_classes);
    return common::OkStatus();
  }
  if (presorted_->rows() != features.rows() ||
      presorted_->cols() != features.cols()) {
    return common::InvalidArgumentError(
        "shared presort does not match the training matrix");
  }
  Grow(*presorted_, rows, labels, num_classes);
  return common::OkStatus();
}

Status DecisionTreeClassifier::Validate(const Matrix& features,
                                        const std::vector<size_t>& rows,
                                        const std::vector<int32_t>& labels,
                                        int32_t num_classes) const {
  if (rows.empty() || features.cols() == 0) {
    return common::InvalidArgumentError("empty training data");
  }
  if (features.rows() > std::numeric_limits<int32_t>::max()) {
    return common::InvalidArgumentError("too many samples for a decision tree");
  }
  if (labels.size() != features.rows()) {
    return common::InvalidArgumentError("label count != sample count");
  }
  Status valid = ValidateRows(rows, features.rows());
  if (!valid.ok()) return valid;
  if (num_classes < 1) {
    return common::InvalidArgumentError("num_classes must be >= 1");
  }
  for (size_t row : rows) {
    if (labels[row] < 0 || labels[row] >= num_classes) {
      return common::InvalidArgumentError("label outside [0, num_classes)");
    }
  }
  if (options_.max_depth < 0 || options_.min_samples_split < 2 ||
      options_.min_samples_leaf < 1) {
    return common::InvalidArgumentError("invalid decision-tree options");
  }
  return common::OkStatus();
}

void DecisionTreeClassifier::Grow(const PresortedFeatures& presorted,
                                  const std::vector<size_t>& rows,
                                  const std::vector<int32_t>& labels,
                                  int32_t num_classes) {
  nodes_.clear();
  depth_ = 0;
  num_features_ = presorted.cols();
  PresortedBuilder(presorted, rows, labels, num_classes, options_, nodes_,
                   depth_)
      .Build();
}

int32_t DecisionTreeClassifier::Predict(
    std::span<const double> features) const {
  ADA_CHECK(!nodes_.empty());
  ADA_CHECK_EQ(features.size(), num_features_);
  size_t current = 0;
  while (!nodes_[current].is_leaf()) {
    const Node& node = nodes_[current];
    current = static_cast<size_t>(
        features[static_cast<size_t>(node.feature)] <= node.threshold
            ? node.left
            : node.right);
  }
  return nodes_[current].label;
}

}  // namespace ml
}  // namespace adahealth
