#include "motion/rmf_memo.h"

#include <memory>

namespace hpm {

const RecursiveMotionFunction& RmfMemo::GetOrFit(
    const std::vector<TimedPoint>& recent, const RmfOptions& options,
    bool* computed) const {
  if (computed != nullptr) *computed = false;
  const RecursiveMotionFunction* memo =
      fitted_.load(std::memory_order_acquire);
  if (memo != nullptr) return *memo;

  auto fresh = std::make_unique<RecursiveMotionFunction>(options);
  // A failed fit leaves `fresh` unfitted; that outcome is memoised too.
  (void)fresh->Fit(recent);
  if (computed != nullptr) *computed = true;
  // acq_rel: the release publishes the fitted state to later acquirers;
  // the acquire on failure makes the winner's state visible to us.
  if (fitted_.compare_exchange_strong(memo, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *memo;  // Lost the race: `fresh` is freed, the winner's serves.
}

}  // namespace hpm
