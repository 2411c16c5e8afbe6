// HybridPredictor: the paper's primary contribution, tying together the
// discovery pipeline (§IV), the Trajectory Pattern Tree (§V) and the
// Hybrid Prediction Algorithm with its two query processors (§VI).
//
// The processors are straight-line routines, one per algorithm: Forward
// Query Processing (Algorithm 2) runs one TPT search and scores its
// hits; Backward Query Processing (Algorithm 3) widens its consequence
// interval round by round, one search per round. Predict, ForwardQuery
// and BackwardQuery all run these same two routines, on the serving
// lane's scratch buffers when the query carries an execution context.

#ifndef HPM_CORE_HYBRID_PREDICTOR_H_
#define HPM_CORE_HYBRID_PREDICTOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/query.h"
#include "core/similarity.h"
#include "mining/apriori.h"
#include "mining/frequent_region.h"
#include "motion/recursive_motion.h"
#include "tpt/frozen_tpt.h"
#include "tpt/key_tables.h"
#include "tpt/tpt_tree.h"

namespace hpm {

/// Everything that configures training and query processing.
struct HybridPredictorOptions {
  /// Discovery: period T, DBSCAN Eps/MinPts, sub-trajectory limit.
  FrequentRegionParams regions;

  /// Pattern mining: min confidence/support, pattern length bounds.
  AprioriParams mining;

  /// TPT node capacity.
  TptTree::Options tpt;

  /// Premise-weight family (paper recommends linear or quadratic).
  WeightFunction weight_function = WeightFunction::kLinear;

  /// Distant-time threshold d (Definition 2): queries with prediction
  /// length >= d use Backward Query Processing.
  Timestamp distant_threshold = 60;

  /// Time relaxation length t_eps for BQP (paper: best at 1..3).
  Timestamp time_relaxation = 2;

  /// Distance slack when matching recent movements to frequent-region
  /// MBRs (0 = strict containment).
  double region_match_slack = 0.0;

  /// Only the last `premise_horizon` recent movements feed the query
  /// premise key (0 = all). The motion-function fallback always sees the
  /// full recent window — the premise is about *which regions were just
  /// visited*, while the fallback wants as much kinematic history as it
  /// can get.
  int premise_horizon = 0;

  /// Configuration of the RMF fallback motion function.
  RmfOptions rmf;
};

/// The motion-function answer to `query` (Algorithm 2 line 6, Algorithm 3
/// line 11): the RMF fitted on query.recent_movements under `rmf` —
/// through query.motion when set, else a function-local memo — evaluated
/// at query.query_time, or the last known location when the window cannot
/// be fitted. Counts the answer (and a computed fit) in query.context.
/// The caller has validated the query.
Prediction MotionFunctionAnswer(const PredictiveQuery& query,
                                const RmfOptions& rmf);

/// Summary of a training run, for reporting and experiments.
struct TrainingSummary {
  size_t num_sub_trajectories = 0;
  size_t num_frequent_regions = 0;
  size_t num_patterns = 0;
  AprioriStats mining_stats;

  /// Bytes of the *builder* (pointer) tree the patterns were loaded
  /// into — the paper's Fig. 11a storage metric.
  size_t tpt_memory_bytes = 0;

  /// Bytes of the frozen arena actually served from (tpt.frozen_bytes).
  size_t tpt_frozen_bytes = 0;
  int tpt_height = 0;
  double train_seconds = 0.0;
};

/// Per-predictor counters describing how queries were answered; the
/// motion-fallback rate drives the paper's Fig. 10 discussion. This is
/// the plain snapshot type returned by counters(); internally the
/// predictor keeps atomic counters so concurrent readers can count.
struct QueryCounters {
  size_t forward_queries = 0;
  size_t backward_queries = 0;
  size_t pattern_answers = 0;
  size_t motion_fallbacks = 0;

  /// Subset of motion_fallbacks produced because the pattern side could
  /// not be consulted (expired deadline / pattern-side fault) rather than
  /// because no pattern matched. The serving degradation rate.
  size_t degraded_answers = 0;
};

/// A trained Hybrid Prediction Model for one moving object.
///
/// Train() mines the object's history once; Predict() answers any number
/// of queries. The model state is immutable after training, and the
/// query counters are atomic, so a trained predictor is safe to share
/// across concurrently-predicting readers. The only mutating members —
/// IncorporateNewHistory() and set_weight_function() — must be
/// externally serialised against readers (the serving layer never
/// mutates a shared model: it trains a fresh one and swaps it in).
class HybridPredictor {
 public:
  /// Mines frequent regions and trajectory patterns from `history` and
  /// indexes them in a TPT. Fails when the history is shorter than one
  /// period or parameters are invalid.
  static StatusOr<std::unique_ptr<HybridPredictor>> Train(
      const Trajectory& history, const HybridPredictorOptions& options);

  /// Answers a predictive query with the Hybrid Prediction Algorithm:
  /// Forward Query Processing for prediction lengths below the distant
  /// threshold, Backward Query Processing at or above it, with the
  /// motion function as fallback when no pattern qualifies. Returns at
  /// most k predictions, best first (pattern answers carry scores;
  /// fallback answers are single).
  StatusOr<std::vector<Prediction>> Predict(const PredictiveQuery& query) const;

  /// Forward Query Processing (Algorithm 2), callable directly.
  StatusOr<std::vector<Prediction>> ForwardQuery(
      const PredictiveQuery& query) const;

  /// Backward Query Processing (Algorithm 3), callable directly.
  StatusOr<std::vector<Prediction>> BackwardQuery(
      const PredictiveQuery& query) const;

  /// The motion-function answer alone (no pattern lookup) — the
  /// comparison baseline inside HPM.
  StatusOr<Prediction> MotionFunctionPredict(
      const PredictiveQuery& query) const;

  /// The load-shedding entry point: answers `query` with the RMF motion
  /// function alone, stamped with `reason`, without touching the pattern
  /// side. Counters stay consistent with Predict() — the call is counted
  /// as a forward/backward query (by prediction length), a motion
  /// fallback and a degraded answer — so the rung-1 ladder response
  /// (DegradedReason::kOverloaded) is indistinguishable from a deadline
  /// degradation in every aggregate metric. `reason` must not be kNone.
  StatusOr<std::vector<Prediction>> DegradedPredict(
      const PredictiveQuery& query, DegradedReason reason) const;

  /// Dynamic data (paper §V-B): "When a certain amount of new data is
  /// accumulated, the system mines new patterns and adds them up to TPT
  /// by using the insertion algorithm."
  ///
  /// `new_history` is the newly accumulated movement data (at least one
  /// complete period). Its locations are matched to the *existing*
  /// frequent regions, patterns are mined over the new sub-trajectories,
  /// and rules not yet indexed are inserted into the TPT. Confidences of
  /// the inserted rules reflect the new batch. If a new rule concludes
  /// at a time offset the consequence-key table has never seen, the key
  /// tables and the TPT are rebuilt (keys change length); otherwise the
  /// keys are unchanged and only the pattern set grows. Either way the
  /// whole TPT is bulk loaded and frozen afresh. On failure the model is
  /// left unchanged. Not safe to call concurrently with Predict.
  ///
  /// Returns the number of patterns added.
  StatusOr<size_t> IncorporateNewHistory(const Trajectory& new_history);

  /// Persists the trained model (options, frequent regions, patterns,
  /// and the frozen TPT arena) to a binary file. Storing the arena lets
  /// load validate bytes instead of replaying the sequential-insert
  /// build; the arena section carries its own CRC on top of the file
  /// footer, so corruption surfaces as DataLoss (→ store quarantine),
  /// never as a differently-shaped index.
  Status SaveToFile(const std::string& path) const;

  /// Restores a model written by SaveToFile. Fails with InvalidArgument
  /// on a malformed/foreign file and FailedPrecondition on a version
  /// mismatch.
  static StatusOr<std::unique_ptr<HybridPredictor>> LoadFromFile(
      const std::string& path);

  const TrainingSummary& summary() const { return summary_; }

  /// A consistent-enough snapshot of the query counters (each field is
  /// read with a relaxed atomic load; fields may straddle a concurrent
  /// query, but every increment is eventually visible exactly once).
  QueryCounters counters() const;
  void ResetCounters() const;

  /// Copies `other`'s query-counter values into this predictor, so a
  /// freshly rebuilt model keeps the aggregate counts monotonic across a
  /// snapshot swap. Call before publishing this predictor to readers — it
  /// races with nothing then.
  void CarryCountersFrom(const HybridPredictor& other) const {
    counters_ = other.counters_;
  }

  /// Runtime-tunable ranking knob: switches the premise-weight family
  /// without retraining (the weights only affect query scoring). Not
  /// thread-safe: call before sharing the predictor across threads.
  void set_weight_function(WeightFunction fn) {
    options_.weight_function = fn;
  }

  const FrequentRegionSet& regions() const { return regions_; }

  /// The mined rules in pattern-id order, decoded from the frozen arena
  /// (premise from the leaf's premise words, consequence and confidence
  /// from its payload) plus each rule's mined support. Allocates the
  /// whole table on every call: for persistence, §V-B dedup, reports and
  /// tests, not the query path.
  std::vector<TrajectoryPattern> Patterns() const;

  /// The frozen serving index: the model's only store of its rules. The
  /// builder tree it was frozen from exists only inside Train and
  /// IncorporateNewHistory; LoadFromFile parses the arena directly.
  const FrozenTpt& tpt() const { return tpt_; }
  const KeyTables& key_tables() const { return key_tables_; }
  const HybridPredictorOptions& options() const { return options_; }

 private:
  /// Relaxed atomic counterpart of QueryCounters. Copying snapshots the
  /// source (so move/copy of a predictor carries the counts over).
  struct AtomicQueryCounters {
    std::atomic<size_t> forward_queries{0};
    std::atomic<size_t> backward_queries{0};
    std::atomic<size_t> pattern_answers{0};
    std::atomic<size_t> motion_fallbacks{0};
    std::atomic<size_t> degraded_answers{0};

    AtomicQueryCounters() = default;
    AtomicQueryCounters(const AtomicQueryCounters& other) { *this = other; }
    AtomicQueryCounters& operator=(const AtomicQueryCounters& other);

    QueryCounters Snapshot() const;
  };

  HybridPredictor(HybridPredictorOptions options, FrequentRegionSet regions,
                  std::vector<int> supports, KeyTables key_tables,
                  FrozenTpt tpt);

  /// The index half of every model build, shared by Train and
  /// IncorporateNewHistory: encodes `patterns` with `tables`, bulk loads
  /// and freezes the TPT, keeps only each rule's support beside it, and
  /// fills `summary`'s region, pattern and index fields (the rest of
  /// `summary` is kept as given).
  static StatusOr<std::unique_ptr<HybridPredictor>> Assemble(
      const HybridPredictorOptions& options, FrequentRegionSet regions,
      const std::vector<TrajectoryPattern>& patterns, KeyTables tables,
      TrainingSummary summary);

  /// Maps recent movements to visited frequent regions (query premise),
  /// refilling `*premise` in place.
  void QueryPremise(const PredictiveQuery& query,
                    std::vector<int>* premise) const;

  /// Forward Query Processing (Algorithm 2) on a validated query: counts
  /// it, degrades when the pattern side is blocked (expired deadline,
  /// then pattern-lookup fault), encodes the query key, searches the TPT
  /// on premise and consequence, and ranks the hits by Equation 2 — or
  /// falls back to the motion function when no pattern qualifies. Runs
  /// on the query's lane scratch (function-local without a context).
  StatusOr<std::vector<Prediction>> ForwardProcessing(
      const PredictiveQuery& query) const;

  /// Backward Query Processing (Algorithm 3) on a validated query: the
  /// same counting and degradation gate, then consequence-only TPT
  /// searches over an interval around tq widened by t_eps per round
  /// (re-checking the deadline before every round after the first) until
  /// a hit is ranked by Equation 5, or the interval reaches the current
  /// time or spans a period and the motion function answers.
  StatusOr<std::vector<Prediction>> BackwardProcessing(
      const PredictiveQuery& query) const;

  /// The "no qualified pattern" answer of both processors (Algorithm 2
  /// line 6, Algorithm 3 line 11): the motion function, counted as a
  /// motion fallback.
  StatusOr<std::vector<Prediction>> MotionFallback(
      const PredictiveQuery& query) const;

  /// The graceful-degradation answer: the RMF motion-function prediction
  /// stamped with `reason`, counted as a (degraded) motion fallback.
  StatusOr<std::vector<Prediction>> DegradedAnswer(
      const PredictiveQuery& query, DegradedReason reason) const;

  /// Ranks `*candidates` in place and materialises the top-k predictions
  /// (the buffer may be per-query scratch, so it is sorted, read, and left
  /// behind rather than consumed).
  std::vector<Prediction> RankAndTake(
      std::vector<Prediction>* candidates, int k) const;

  HybridPredictorOptions options_;
  FrequentRegionSet regions_;
  /// Mined support per pattern id: the one rule field the arena does not
  /// hold, kept so that SaveToFile writes the miner's table unchanged.
  std::vector<int> supports_;
  KeyTables key_tables_;
  FrozenTpt tpt_;
  TrainingSummary summary_;
  mutable AtomicQueryCounters counters_;
};

}  // namespace hpm

#endif  // HPM_CORE_HYBRID_PREDICTOR_H_
