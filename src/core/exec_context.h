// Per-query execution context: the one object threaded from the serving
// layer through the predictor down into TPT traversal and the motion
// fallback.
//
// A QueryContext carries (a) the query's latency budget and the load
// shedder's verdict, (b) a per-query Trace, (c) relaxed atomic counters
// that the pipeline's Account stage flushes exactly once into the store's
// aggregate stats/metrics, and (d) per-lane scratch buffers so the hot
// path stops allocating per shard and per object. A "lane" is one unit of
// intra-query parallelism — a shard task in a fan-out, a chunk in a batch
// — and its scratch is owned exclusively by that task, so scratch access
// needs no synchronisation while the counters stay atomic.
//
// Core code reaches the context through PredictiveQuery::context (may be
// null: direct HybridPredictor users — evaluation, tools, tests — keep the
// exact pre-pipeline behaviour with function-local buffers).

#ifndef HPM_CORE_EXEC_CONTEXT_H_
#define HPM_CORE_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/epoch.h"
#include "common/trace.h"
#include "core/query.h"
#include "tpt/frozen_tpt.h"
#include "tpt/pattern_key.h"

namespace hpm {

/// Reusable buffers for one lane of query execution. Cleared (not freed)
/// between objects, so steady state does no per-object allocation on the
/// pattern side.
struct PredictScratch {
  /// TPT search output buffer.
  std::vector<const FrozenLeaf*> tpt_hits;

  /// Candidate predictions prior to ranking.
  std::vector<Prediction> candidates;

  /// Query-key work buffer (FQP key, or BQP round key).
  PatternKey query_key;

  /// Second key buffer for BQP's wrap-around interval union.
  PatternKey interval_key;

  /// Per-lane epoch pin: a fan-out lane running on a pool thread pins
  /// here before its first acquire-load of a shard table, and releases
  /// (or is released by the next assignment) when the lane's work is
  /// done. Makes the scratch move-only, which the lane pool is.
  EpochManager::Guard epoch_guard;
};

/// The per-query execution state. Created by the serving pipeline, one per
/// store entry-point call; lives on the caller's stack for the duration of
/// the query.
class QueryContext {
 public:
  QueryContext() : QueryContext(Deadline::Infinite(), /*traced=*/false) {}
  QueryContext(Deadline deadline, bool traced)
      : deadline_(deadline), trace_(traced) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  const Deadline& deadline() const { return deadline_; }

  /// The degradation ladder's verdict for this query: when true, every
  /// prediction is served from the RMF motion function alone
  /// (DegradedReason::kOverloaded) and the pattern side is never touched.
  bool shed_to_rmf() const { return shed_to_rmf_; }
  void set_shed_to_rmf(bool shed) { shed_to_rmf_ = shed; }

  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  /// Sizes the scratch pool. Must be called before concurrent lane use
  /// (the pipeline's Plan stage does); existing buffers are kept.
  void SetLaneCount(size_t lanes) {
    if (lanes > scratch_.size()) scratch_.resize(lanes);
  }
  size_t lane_count() const { return scratch_.size(); }

  /// Scratch for lane `i`; exclusive to the task running that lane.
  PredictScratch& lane(size_t i) { return scratch_[i]; }

  /// Query-scope epoch pin, held by the entry point that loaded snapshot
  /// pointers on the calling thread (point predict, batch planning). A
  /// pin taken *before* the first snapshot-pointer load protects every
  /// pointer loaded under it for the guard's lifetime, on whichever
  /// thread dereferences it — reclamation frees an object only when all
  /// slots pinned at or before its retirement have released.
  void AdoptEpochGuard(EpochManager::Guard guard) {
    epoch_guard_ = std::move(guard);
  }

  // --- Per-query accounting, flushed once by the pipeline's Account
  // --- stage. Relaxed atomics: fan-out lanes of one query may count
  // --- concurrently.

  /// A prediction served degraded because of load shedding (one count per
  /// prediction; flushed into store.degraded_predictions).
  void CountDegradedPrediction(uint64_t n = 1) {
    degraded_predictions_.fetch_add(n, std::memory_order_relaxed);
  }
  /// A shard skipped by an open circuit breaker or a failed shard task.
  void CountSkippedShard() {
    shards_skipped_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A model (re)train deferred by overload rung 1.
  void CountDeferredTrain() {
    trains_deferred_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A location report rejected by ingestion validation.
  void CountRejectedReport() {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One object's prediction evaluated (any source).
  void CountObjectEvaluated() {
    objects_evaluated_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One answer served by the RMF motion function (fallback or cold
  /// start), whether its fit was computed or memoised.
  void CountMotionFit() {
    motion_fits_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One RecursiveMotionFunction::Fit actually run (a memo miss).
  void CountMotionFitComputed() {
    motion_fits_computed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Accumulates one TPT search's traversal effort.
  void AddTptStats(const TptSearchStats& stats) {
    tpt_nodes_visited_.fetch_add(stats.nodes_visited,
                                 std::memory_order_relaxed);
    tpt_entries_tested_.fetch_add(stats.entries_tested,
                                  std::memory_order_relaxed);
    tpt_blocks_scanned_.fetch_add(stats.blocks_scanned,
                                  std::memory_order_relaxed);
  }

  /// Plain snapshot of the accumulators (taken after fan-out joins, so
  /// the values are exact, not advisory).
  struct Totals {
    uint64_t degraded_predictions = 0;
    uint64_t shards_skipped = 0;
    uint64_t trains_deferred = 0;
    uint64_t reports_rejected = 0;
    uint64_t objects_evaluated = 0;
    uint64_t motion_fits = 0;
    uint64_t motion_fits_computed = 0;
    uint64_t tpt_nodes_visited = 0;
    uint64_t tpt_entries_tested = 0;
    uint64_t tpt_blocks_scanned = 0;
  };
  Totals totals() const {
    Totals t;
    t.degraded_predictions =
        degraded_predictions_.load(std::memory_order_relaxed);
    t.shards_skipped = shards_skipped_.load(std::memory_order_relaxed);
    t.trains_deferred = trains_deferred_.load(std::memory_order_relaxed);
    t.reports_rejected = reports_rejected_.load(std::memory_order_relaxed);
    t.objects_evaluated = objects_evaluated_.load(std::memory_order_relaxed);
    t.motion_fits = motion_fits_.load(std::memory_order_relaxed);
    t.motion_fits_computed =
        motion_fits_computed_.load(std::memory_order_relaxed);
    t.tpt_nodes_visited = tpt_nodes_visited_.load(std::memory_order_relaxed);
    t.tpt_entries_tested =
        tpt_entries_tested_.load(std::memory_order_relaxed);
    t.tpt_blocks_scanned =
        tpt_blocks_scanned_.load(std::memory_order_relaxed);
    return t;
  }

 private:
  Deadline deadline_;
  bool shed_to_rmf_ = false;
  Trace trace_;
  std::vector<PredictScratch> scratch_;
  EpochManager::Guard epoch_guard_;

  std::atomic<uint64_t> degraded_predictions_{0};
  std::atomic<uint64_t> shards_skipped_{0};
  std::atomic<uint64_t> trains_deferred_{0};
  std::atomic<uint64_t> reports_rejected_{0};
  std::atomic<uint64_t> objects_evaluated_{0};
  std::atomic<uint64_t> motion_fits_{0};
  std::atomic<uint64_t> motion_fits_computed_{0};
  std::atomic<uint64_t> tpt_nodes_visited_{0};
  std::atomic<uint64_t> tpt_entries_tested_{0};
  std::atomic<uint64_t> tpt_blocks_scanned_{0};
};

}  // namespace hpm

#endif  // HPM_CORE_EXEC_CONTEXT_H_
