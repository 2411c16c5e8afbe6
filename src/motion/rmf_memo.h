// A lazily filled, lock-free memo of one fitted Recursive Motion Function.
//
// RecursiveMotionFunction::Fit is a pure function of (recent window,
// RmfOptions), and the serving layer's published object views hold an
// immutable recent window. So a view can carry one memo: the first reader
// that needs the motion-function fallback fits into a heap object and
// publishes it with a single compare-exchange; every later reader of that
// view only evaluates Predict(tq). Readers that race the first fit each
// fit their own copy, the loser deletes its copy and uses the winner's —
// no mutex, no call_once, so the read path stays lock-free. The memo (and
// the model it holds) is freed with its owner.
//
// A failed fit (a degenerate window) is memoised too: the stored model is
// then unfitted, its Predict returns FailedPrecondition, and callers
// answer with the last known location exactly as they would after a
// fresh failed fit.

#ifndef HPM_MOTION_RMF_MEMO_H_
#define HPM_MOTION_RMF_MEMO_H_

#include <atomic>
#include <vector>

#include "motion/recursive_motion.h"

namespace hpm {

class RmfMemo {
 public:
  RmfMemo() = default;
  ~RmfMemo() { delete fitted_.load(std::memory_order_acquire); }
  RmfMemo(const RmfMemo&) = delete;
  RmfMemo& operator=(const RmfMemo&) = delete;

  /// The model fitted on `recent` under `options`, fitting it on the
  /// first call. Every call on one memo must pass the same window and
  /// options (the memo's owner guarantees it); the memo never re-checks.
  /// Sets `*computed` (when non-null) to whether this call ran Fit.
  /// Safe to call concurrently.
  const RecursiveMotionFunction& GetOrFit(
      const std::vector<TimedPoint>& recent, const RmfOptions& options,
      bool* computed = nullptr) const;

 private:
  mutable std::atomic<const RecursiveMotionFunction*> fitted_{nullptr};
};

}  // namespace hpm

#endif  // HPM_MOTION_RMF_MEMO_H_
