// FP-growth frequent-itemset mining (Han, Pei & Yin, SIGMOD'00): the
// production miner of the pattern-discovery component. Produces exactly
// the same itemsets as Apriori, typically orders of magnitude faster on
// dense transaction databases.
#ifndef ADAHEALTH_PATTERNS_FPGROWTH_H_
#define ADAHEALTH_PATTERNS_FPGROWTH_H_

#include "common/status.h"
#include "patterns/apriori.h"
#include "patterns/transactions.h"

namespace adahealth {
namespace patterns {

/// Mines all frequent itemsets of `db` with FP-growth. Output is in
/// canonical order (SortCanonical) and identical to MineApriori.
[[nodiscard]] common::StatusOr<std::vector<FrequentItemset>> MineFpGrowth(
    const TransactionDb& db, const MiningOptions& options);

}  // namespace patterns
}  // namespace adahealth

#endif  // ADAHEALTH_PATTERNS_FPGROWTH_H_
