#include "patterns/fpgrowth.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/metrics.h"

namespace adahealth {
namespace patterns {

namespace {

/// One FP-tree node in the arena.
struct FpNode {
  ItemId item = -1;  // -1 for the root.
  int64_t count = 0;
  int32_t parent = -1;
  std::map<ItemId, int32_t> children;
};

/// FP-tree: arena of nodes plus a header table mapping each item to the
/// nodes carrying it and its total support.
struct FpTree {
  std::vector<FpNode> nodes;
  std::map<ItemId, std::vector<int32_t>> header;
  std::map<ItemId, int64_t> item_support;

  FpTree() { nodes.push_back(FpNode{}); }  // Root.

  /// Inserts `items` (ordered by descending global frequency) with the
  /// given multiplicity.
  void Insert(const std::vector<ItemId>& items, int64_t count) {
    int32_t current = 0;
    for (ItemId item : items) {
      auto it = nodes[static_cast<size_t>(current)].children.find(item);
      int32_t child;
      if (it == nodes[static_cast<size_t>(current)].children.end()) {
        child = static_cast<int32_t>(nodes.size());
        FpNode node;
        node.item = item;
        node.parent = current;
        // push_back may reallocate the arena, so the parent's children
        // map must be re-fetched afterwards (never held by reference
        // across the insertion).
        nodes.push_back(std::move(node));
        nodes[static_cast<size_t>(current)].children.emplace(item, child);
        header[item].push_back(child);
      } else {
        child = it->second;
      }
      nodes[static_cast<size_t>(child)].count += count;
      item_support[item] += count;
      current = child;
    }
  }

  /// True when the tree consists of a single path from the root.
  bool IsSinglePath() const {
    size_t current = 0;
    while (true) {
      const auto& children = nodes[current].children;
      if (children.empty()) return true;
      if (children.size() > 1) return false;
      current = static_cast<size_t>(children.begin()->second);
    }
  }
};

/// Recursive FP-growth over `tree`, appending results with the given
/// suffix itemset.
// Longest single path for which the 2^n subset enumeration is allowed;
// longer paths fall back to the general recursion.
constexpr size_t kMaxSinglePathShortcut = 24;

void Grow(const FpTree& tree, const std::vector<ItemId>& suffix,
          int64_t min_support, size_t max_size,
          std::vector<FrequentItemset>& out) {
  if (tree.IsSinglePath() && tree.nodes.size() <= kMaxSinglePathShortcut) {
    // Enumerate all item combinations along the path; the support of a
    // combination is the count of its deepest node.
    std::vector<std::pair<ItemId, int64_t>> path;
    size_t current = 0;
    while (!tree.nodes[current].children.empty()) {
      int32_t child = tree.nodes[current].children.begin()->second;
      const FpNode& node = tree.nodes[static_cast<size_t>(child)];
      path.emplace_back(node.item, node.count);
      current = static_cast<size_t>(child);
    }
    const size_t n = path.size();
    for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
      std::vector<ItemId> items = suffix;
      int64_t support = INT64_MAX;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (uint64_t{1} << i)) {
          items.push_back(path[i].first);
          support = std::min(support, path[i].second);
        }
      }
      if (support < min_support) continue;
      if (max_size != 0 && items.size() > max_size) continue;
      std::sort(items.begin(), items.end());
      out.push_back({std::move(items), support});
    }
    return;
  }

  // General case: iterate header items (ascending support so that
  // conditional trees shrink fastest; any order is correct).
  std::vector<std::pair<ItemId, int64_t>> items(
      tree.item_support.begin(), tree.item_support.end());
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  for (const auto& [item, support] : items) {
    if (support < min_support) continue;
    std::vector<ItemId> new_suffix = suffix;
    new_suffix.push_back(item);
    if (max_size == 0 || new_suffix.size() <= max_size) {
      std::vector<ItemId> sorted = new_suffix;
      std::sort(sorted.begin(), sorted.end());
      out.push_back({std::move(sorted), support});
    }
    if (max_size != 0 && new_suffix.size() >= max_size) continue;

    // Conditional pattern base of `item`: prefix paths with counts.
    FpTree conditional;
    auto header_it = tree.header.find(item);
    ADA_CHECK(header_it != tree.header.end());
    for (int32_t node_id : header_it->second) {
      const FpNode& node = tree.nodes[static_cast<size_t>(node_id)];
      std::vector<ItemId> prefix;
      int32_t ancestor = node.parent;
      while (ancestor > 0) {
        prefix.push_back(tree.nodes[static_cast<size_t>(ancestor)].item);
        ancestor = tree.nodes[static_cast<size_t>(ancestor)].parent;
      }
      std::reverse(prefix.begin(), prefix.end());
      if (!prefix.empty()) conditional.Insert(prefix, node.count);
    }
    // Drop items that fell below the threshold in the conditional base
    // by rebuilding with only frequent items.
    FpTree filtered;
    {
      // Collect paths again from the conditional tree leaves is costly;
      // instead re-insert the pattern base filtered by support.
      for (int32_t node_id : header_it->second) {
        const FpNode& node = tree.nodes[static_cast<size_t>(node_id)];
        std::vector<ItemId> prefix;
        int32_t ancestor = node.parent;
        while (ancestor > 0) {
          ItemId prefix_item =
              tree.nodes[static_cast<size_t>(ancestor)].item;
          auto support_it = conditional.item_support.find(prefix_item);
          if (support_it != conditional.item_support.end() &&
              support_it->second >= min_support) {
            prefix.push_back(prefix_item);
          }
          ancestor = tree.nodes[static_cast<size_t>(ancestor)].parent;
        }
        std::reverse(prefix.begin(), prefix.end());
        if (!prefix.empty()) filtered.Insert(prefix, node.count);
      }
    }
    if (!filtered.item_support.empty()) {
      Grow(filtered, new_suffix, min_support, max_size, out);
    }
  }
}

}  // namespace

common::StatusOr<std::vector<FrequentItemset>> MineFpGrowth(
    const TransactionDb& db, const MiningOptions& options) {
  if (options.min_support_count < 1) {
    return common::InvalidArgumentError("min_support_count must be >= 1");
  }

  // Global item frequencies and the f-list order (descending support,
  // ascending id on ties).
  std::unordered_map<ItemId, int64_t> frequencies;
  for (const auto& transaction : db.transactions) {
    for (ItemId item : transaction) ++frequencies[item];
  }
  auto rank_less = [&](ItemId a, ItemId b) {
    int64_t fa = frequencies[a];
    int64_t fb = frequencies[b];
    if (fa != fb) return fa > fb;
    return a < b;
  };

  FpTree tree;
  std::vector<ItemId> filtered;
  for (const auto& transaction : db.transactions) {
    filtered.clear();
    for (ItemId item : transaction) {
      if (frequencies[item] >= options.min_support_count) {
        filtered.push_back(item);
      }
    }
    if (filtered.empty()) continue;
    std::sort(filtered.begin(), filtered.end(), rank_less);
    tree.Insert(filtered, 1);
  }

  std::vector<FrequentItemset> result;
  Grow(tree, {}, options.min_support_count, options.max_itemset_size,
       result);
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.GetCounter("patterns/fpgrowth/tree_nodes")
      .Increment(static_cast<int64_t>(tree.nodes.size()) - 1);
  metrics.GetCounter("patterns/fpgrowth/frequent_itemsets")
      .Increment(static_cast<int64_t>(result.size()));
  SortCanonical(result);
  return result;
}

}  // namespace patterns
}  // namespace adahealth
