// Transactions: the item-set view of sub-trajectories consumed by the
// Apriori pattern miner (paper §IV).
//
// Each sub-trajectory becomes one transaction whose items are the
// frequent-region ids it visited. Because region ids are assigned in
// offset order, a transaction's sorted item list is automatically a
// time-ordered region sequence.

#ifndef HPM_MINING_TRANSACTION_H_
#define HPM_MINING_TRANSACTION_H_

#include <span>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "mining/frequent_region.h"

namespace hpm {

/// One sub-trajectory's region visits as an item set.
class Transaction {
 public:
  /// Creates a transaction over a universe of `num_regions` items from
  /// the given visits (region ids may repeat across offsets if the object
  /// lingers; duplicates collapse in the set view, as in the paper's
  /// association-rule framing).
  Transaction(const std::vector<RegionVisit>& visits, size_t num_regions);

  /// Sorted distinct region ids (== time-offset order).
  const std::vector<int>& items() const { return items_; }

  /// Membership bitmap over region ids for O(1) subset checks.
  const DynamicBitset& bits() const { return bits_; }

  /// True if every id in `subset_bits` is contained here.
  bool ContainsAll(const DynamicBitset& subset_bits) const {
    return bits_.Contains(subset_bits);
  }

  bool Contains(int region_id) const {
    return bits_.Test(static_cast<size_t>(region_id));
  }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  std::vector<int> items_;
  DynamicBitset bits_;
};

/// Builds one transaction per sub-trajectory from a discovery result.
std::vector<Transaction> BuildTransactions(
    const FrequentRegionMiningResult& mining_result);

/// Maps an object's recent movements onto frequent regions: for each
/// movement, finds the region at its time offset (time mod period) whose
/// MBR contains (or is within `slack` of) the location. Refills `*ids`
/// with the matched region ids, de-duplicated, ascending (reusing its
/// capacity). This is how a query's premise is derived at prediction
/// time (paper §V-C).
void MapMovementsToRegions(const FrequentRegionSet& regions,
                           std::span<const TimedPoint> recent, double slack,
                           std::vector<int>* ids);

}  // namespace hpm

#endif  // HPM_MINING_TRANSACTION_H_
