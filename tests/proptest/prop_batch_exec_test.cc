// Property suite: PredictLocationBatch is PredictLocation amortised
// over many ids — one admission ticket and one epoch pin per batch, the
// per-object work fanned out in contiguous chunks whose lanes predict
// their items in input order. The contracts under test:
//   * differential — PredictLocationBatch answers every slot
//     bit-identically (locations, scores, confidences, sources,
//     degraded stamps, pattern ids, statuses) to the sequential
//     PredictLocation calls it amortises, for any id multiset mixing
//     trained, cold, duplicate and unknown objects, under an infinite
//     deadline and under deterministic rung-1 deadline pressure,
//   * the Account stage reconciles — a store serving batches and a
//     store serving the equivalent singles agree on objects_evaluated,
//     motion_fits and degraded_predictions; admitted/shed and latency
//     samples land under predict_batch vs predict respectively, and no
//     admission ticket leaks,
//   * repeated queries of one view are exact — the same published view
//     asked at several horizons, singly and batched, relaxed and under
//     rung-1 pressure, answers bit-identically to a direct
//     HybridPredictor::Predict / DegradedPredict on the object's recent
//     window (trained objects) or to a fresh RecursiveMotionFunction fit
//     (cold objects), although the view fits its motion function once,
//   * (with -DHPM_ENABLE_FAULTS=ON) an `always`-armed pattern-lookup
//     fault degrades batched and sequential answers identically
//     (order-independent schedules only: the batch's chunks run
//     concurrently on the pool, so count-based schedules would
//     legitimately hit different queries).
// Every failure replays from its seed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "motion/recursive_motion.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 10;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

struct ReportOp {
  ObjectId id = 0;
  Point location;
};

struct BatchCase {
  std::vector<ReportOp> ops;
  /// Query id multiset: known ids (some trained, some cold), duplicates
  /// and never-reported ids, in random order.
  std::vector<ObjectId> query_ids;
  Timestamp query_delta = 1;
  /// Horizons (past the newest report) at which the same views are
  /// queried again and again.
  std::vector<Timestamp> repeat_deltas;
};

ObjectStoreOptions BatchStoreOptions() {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 12.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 5;
  options.predictor.region_match_slack = 6.0;
  options.min_training_periods = 4;
  options.recent_window = 5;
  options.num_shards = 4;
  options.query_threads = 2;
  // Rung 1 trips on any finite deadline: deterministic pressure without
  // clocks, identical for the batched and the sequential path.
  options.degrade_min_headroom =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::hours(1));
  return options;
}

BatchCase GenBatchCase(Random& rng) {
  BatchCase c;
  const int num_objects = static_cast<int>(1 + rng.Uniform(4));
  std::vector<ObjectId> ids;
  std::vector<std::vector<Point>> routes;
  std::vector<int> next_step(static_cast<size_t>(num_objects), 0);
  for (int i = 0; i < num_objects; ++i) {
    ids.push_back(static_cast<ObjectId>(i) * 13 + 7);
    std::vector<Point> route;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(rng, kExtent));
    }
    routes.push_back(std::move(route));
  }
  const int num_ops = static_cast<int>(rng.Uniform(
      60ull * static_cast<uint64_t>(num_objects)));
  for (int i = 0; i < num_ops; ++i) {
    const size_t obj = rng.Uniform(static_cast<uint64_t>(num_objects));
    const int step = next_step[obj]++;
    Point p = routes[obj][static_cast<size_t>(step) % kPeriod];
    p.x += rng.Gaussian(0.0, 2.0);
    p.y += rng.Gaussian(0.0, 2.0);
    c.ops.push_back({ids[obj], p});
  }
  const int num_queries = static_cast<int>(1 + rng.Uniform(12));
  for (int i = 0; i < num_queries; ++i) {
    if (rng.Uniform(5) == 0) {
      c.query_ids.push_back(10007 + static_cast<ObjectId>(rng.Uniform(3)));
    } else {
      c.query_ids.push_back(ids[rng.Uniform(
          static_cast<uint64_t>(num_objects))]);
    }
  }
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(12));
  const int num_repeats = static_cast<int>(2 + rng.Uniform(4));
  for (int i = 0; i < num_repeats; ++i) {
    c.repeat_deltas.push_back(static_cast<Timestamp>(1 + rng.Uniform(12)));
  }
  return c;
}

std::string Replay(MovingObjectStore& store,
                   const std::vector<ReportOp>& ops) {
  for (const ReportOp& op : ops) {
    const Status status = store.ReportLocation(op.id, op.location);
    if (!status.ok()) return "ReportLocation failed: " + status.ToString();
  }
  return "";
}

Timestamp QueryTime(const MovingObjectStore& store, Timestamp delta) {
  Timestamp max_now = 0;
  for (const ObjectId id : store.ObjectIds()) {
    max_now = std::max(max_now,
                       static_cast<Timestamp>(store.HistoryLength(id)));
  }
  return max_now + delta;
}

std::string DiffPredictions(const std::vector<Prediction>& a,
                            const std::vector<Prediction>& b) {
  if (a.size() != b.size()) return "prediction counts differ";
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].location == b[i].location)) return "location differs";
    if (a[i].score != b[i].score) return "score differs";
    if (a[i].confidence != b[i].confidence) return "confidence differs";
    if (a[i].source != b[i].source) return "source differs";
    if (a[i].degraded != b[i].degraded) return "degraded reason differs";
    if (a[i].pattern_id != b[i].pattern_id) return "pattern id differs";
  }
  return "";
}

/// Slot-by-slot comparison of a batch answer against per-id singles
/// taken from `reference` (may be the same store — queries are
/// read-only).
std::string DiffBatchAgainstSingles(
    const std::vector<StatusOr<std::vector<Prediction>>>& batch,
    MovingObjectStore& reference, const std::vector<ObjectId>& ids,
    Timestamp tq, Deadline deadline) {
  if (batch.size() != ids.size()) return "batch size mismatch";
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto single = reference.PredictLocation(ids[i], tq, 2, deadline);
    if (batch[i].ok() != single.ok() ||
        batch[i].status().code() != single.status().code()) {
      return "slot " + std::to_string(i) + " (object " +
             std::to_string(ids[i]) + "): status " +
             batch[i].status().ToString() + " != " +
             single.status().ToString();
    }
    if (!batch[i].ok()) continue;
    const std::string diff = DiffPredictions(*batch[i], *single);
    if (!diff.empty()) {
      return "slot " + std::to_string(i) + " (object " +
             std::to_string(ids[i]) + "): " + diff;
    }
  }
  return "";
}

std::vector<BatchCase> ShrinkBatchCase(const BatchCase& input) {
  std::vector<BatchCase> out;
  for (std::vector<ReportOp>& fewer : proptest::ShrinkVector(input.ops)) {
    BatchCase c = input;
    c.ops = std::move(fewer);
    out.push_back(std::move(c));
  }
  for (std::vector<ObjectId>& fewer :
       proptest::ShrinkVector(input.query_ids)) {
    if (fewer.empty()) continue;  // An empty batch asks nothing.
    BatchCase c = input;
    c.query_ids = std::move(fewer);
    out.push_back(std::move(c));
  }
  return out;
}

// --- P1: batched == sequential, relaxed and under deadline pressure ----

std::string CheckBatchMatchesSequential(const BatchCase& input) {
  MovingObjectStore store(BatchStoreOptions());
  const std::string failure = Replay(store, input.ops);
  if (!failure.empty()) return failure;
  const Timestamp tq = QueryTime(store, input.query_delta);

  // Relaxed: the infinite deadline never sheds, so trained objects take
  // the full pattern path.
  {
    const auto batch = store.PredictLocationBatch(input.query_ids, tq, 2);
    const std::string diff = DiffBatchAgainstSingles(
        batch, store, input.query_ids, tq, Deadline::Infinite());
    if (!diff.empty()) return "relaxed: " + diff;
  }

  // Pressured: a finite deadline under an hour of required headroom
  // sheds every trained object to its stamped RMF answer — in both
  // paths, by the same shared preamble.
  {
    const Deadline deadline = Deadline::AfterMillis(50);
    const auto batch =
        store.PredictLocationBatch(input.query_ids, tq, 2, deadline);
    const std::string diff = DiffBatchAgainstSingles(
        batch, store, input.query_ids, tq, Deadline::AfterMillis(50));
    if (!diff.empty()) return "pressured: " + diff;
    for (size_t i = 0; i < input.query_ids.size(); ++i) {
      if (!batch[i].ok()) continue;
      const bool trained = store.GetPredictor(input.query_ids[i]).ok();
      const DegradedReason reason = batch[i]->front().degraded;
      if (trained && reason != DegradedReason::kOverloaded) {
        return "trained object " + std::to_string(input.query_ids[i]) +
               " not shed under pressure";
      }
      if (!trained && reason != DegradedReason::kNone) {
        return "cold object " + std::to_string(input.query_ids[i]) +
               " wrongly stamped degraded";
      }
    }
  }
  if (store.InFlight() != 0) return "admission ticket leaked";
  return "";
}

TEST(PropBatchExecTest, BatchAnswersBitIdenticallyToSequentialSingles) {
  Property<BatchCase> property("batch-vs-sequential", GenBatchCase,
                               CheckBatchMatchesSequential);
  property.WithShrinker(ShrinkBatchCase);
  RunnerOptions options;
  options.num_cases = 10;
  options.max_shrink_checks = 30;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P2: the Account stage reconciles batches against singles ----------

std::string CheckBatchAccountingReconciles(const BatchCase& input) {
  MovingObjectStore batched(BatchStoreOptions());
  MovingObjectStore singles(BatchStoreOptions());
  std::string failure = Replay(batched, input.ops);
  if (!failure.empty()) return "batched: " + failure;
  failure = Replay(singles, input.ops);
  if (!failure.empty()) return "singles: " + failure;
  const Timestamp tq = QueryTime(batched, input.query_delta);

  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const auto batch =
        batched.PredictLocationBatch(input.query_ids, tq + round, 2);
    if (batch.size() != input.query_ids.size()) return "batch size wrong";
    for (const ObjectId id : input.query_ids) {
      (void)singles.PredictLocation(id, tq + round, 2);
    }
  }

  const MetricsSnapshot sa = batched.metrics_snapshot();
  const MetricsSnapshot sb = singles.metrics_snapshot();
  // The per-object work is the same work, whichever door it came in.
  for (const char* name : {"store.objects_evaluated", "store.motion_fits",
                           "store.degraded_predictions"}) {
    if (sa.counter(name) != sb.counter(name)) {
      return std::string(name) + ": batch " +
             std::to_string(sa.counter(name)) + " != singles " +
             std::to_string(sb.counter(name));
    }
  }
  // The admission/latency accounting lands under the respective op.
  const uint64_t queries =
      static_cast<uint64_t>(kRounds) * input.query_ids.size();
  if (sa.counter("store.admitted.predict_batch") !=
      static_cast<uint64_t>(kRounds)) {
    return "admitted.predict_batch != batch calls";
  }
  if (sa.counter("store.admitted.predict") != 0) {
    return "batch store charged singles";
  }
  if (sb.counter("store.admitted.predict") != queries) {
    return "admitted.predict != single calls";
  }
  const auto* batch_histogram = sa.histogram("op.predict_batch_us");
  if (batch_histogram == nullptr ||
      batch_histogram->count != static_cast<uint64_t>(kRounds)) {
    return "predict_batch latency sample count wrong";
  }
  if (batched.InFlight() != 0 || singles.InFlight() != 0) {
    return "admission ticket leaked";
  }
  return "";
}

TEST(PropBatchExecTest, AccountingReconcilesBatchesAgainstSingles) {
  Property<BatchCase> property("batch-accounting", GenBatchCase,
                               CheckBatchAccountingReconciles);
  property.WithShrinker(ShrinkBatchCase);
  RunnerOptions options;
  options.num_cases = 8;
  options.max_shrink_checks = 24;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P3: repeated queries of one view match direct computation --------

/// What a direct computation answers for `id` at `tq`: the object's own
/// predictor run on its recent window (DegradedPredict when `shed`), or,
/// for an untrained object, a fresh RMF fit — the last known location
/// when the window cannot be fitted.
StatusOr<std::vector<Prediction>> DirectAnswer(
    const MovingObjectStore& store, const ObjectStoreOptions& options,
    const Trajectory& history, ObjectId id, Timestamp tq, bool shed) {
  PredictiveQuery query;
  query.current_time = static_cast<Timestamp>(history.size()) - 1;
  query.recent_movements =
      history.RecentMovements(query.current_time, options.recent_window);
  query.query_time = tq;
  query.k = 2;
  const auto predictor = store.GetPredictor(id);
  if (predictor.ok()) {
    return shed ? (*predictor)->DegradedPredict(query,
                                                DegradedReason::kOverloaded)
                : (*predictor)->Predict(query);
  }
  RecursiveMotionFunction fresh(options.predictor.rmf);
  Prediction p;
  p.location = query.recent_movements.back().location;
  if (fresh.Fit(query.recent_movements).ok()) {
    const StatusOr<Point> at = fresh.Predict(tq);
    if (at.ok()) p.location = *at;
  }
  return std::vector<Prediction>{p};
}

std::string CheckRepeatedViewQueriesMatchDirect(const BatchCase& input) {
  const ObjectStoreOptions options = BatchStoreOptions();
  MovingObjectStore store(options);
  const std::string failure = Replay(store, input.ops);
  if (!failure.empty()) return failure;
  std::map<ObjectId, Trajectory> histories;
  for (const ReportOp& op : input.ops) histories[op.id].Append(op.location);

  std::vector<ObjectId> known;
  for (const ObjectId id : input.query_ids) {
    const auto it = histories.find(id);
    if (it != histories.end() && it->second.size() >= 2 &&
        std::find(known.begin(), known.end(), id) == known.end()) {
      known.push_back(id);
    }
  }
  if (known.empty()) return "";

  // No report runs between the queries, so every query below meets the
  // same published view of its object.
  for (const bool shed : {false, true}) {
    for (const Timestamp delta : input.repeat_deltas) {
      const Timestamp tq = QueryTime(store, delta);
      const Deadline deadline =
          shed ? Deadline::AfterMillis(50) : Deadline::Infinite();
      const auto batch = store.PredictLocationBatch(known, tq, 2, deadline);
      for (size_t i = 0; i < known.size(); ++i) {
        const ObjectId id = known[i];
        const auto want =
            DirectAnswer(store, options, histories[id], id, tq, shed);
        const auto single = store.PredictLocation(id, tq, 2, deadline);
        for (const auto* got : {&single, &batch[i]}) {
          const std::string path = got == &single ? "single" : "batch";
          if (got->ok() != want.ok()) {
            return path + " object " + std::to_string(id) + ": status " +
                   got->status().ToString() + " != direct " +
                   want.status().ToString();
          }
          if (!got->ok()) continue;
          const std::string diff = DiffPredictions(**got, *want);
          if (!diff.empty()) {
            return path + " object " + std::to_string(id) + " at tq " +
                   std::to_string(tq) + (shed ? " (shed)" : "") + ": " +
                   diff;
          }
        }
      }
    }
  }

  // One fit per view: at most one per object from each of the batch's
  // two concurrent chunks, however many fallbacks were answered.
  const MetricsSnapshot snap = store.metrics_snapshot();
  const uint64_t answered = snap.counter("store.motion_fits");
  const uint64_t computed = snap.counter("store.motion_fits_computed");
  if (computed > answered || computed > 2 * known.size() ||
      (answered > 0) != (computed > 0)) {
    return "motion fits: " + std::to_string(computed) + " computed for " +
           std::to_string(answered) + " fallback answers over " +
           std::to_string(known.size()) + " views";
  }
  return "";
}

TEST(PropBatchExecTest, RepeatedViewQueriesMatchDirectComputation) {
  Property<BatchCase> property("repeated-view-queries", GenBatchCase,
                               CheckRepeatedViewQueriesMatchDirect);
  property.WithShrinker(ShrinkBatchCase);
  RunnerOptions options;
  options.num_cases = 10;
  options.max_shrink_checks = 30;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P4: order-independent fault schedules degrade both paths alike ----

#ifdef HPM_ENABLE_FAULTS

std::string CheckAlwaysFaultDegradesBothPathsAlike(const BatchCase& input) {
  FaultInjector::Global().Reset();
  MovingObjectStore store(BatchStoreOptions());
  const std::string failure = Replay(store, input.ops);
  if (!failure.empty()) return failure;
  const Timestamp tq = QueryTime(store, input.query_delta);

  // `always` is the only order-independent schedule: the batch's chunks
  // run concurrently on the pool lanes, so a count-based rule would
  // legitimately fire on different queries than sequential issue order.
  FaultRule rule;
  rule.always = true;
  rule.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("core/pattern_lookup", rule);

  const auto batch = store.PredictLocationBatch(input.query_ids, tq, 2);
  const std::string diff = DiffBatchAgainstSingles(
      batch, store, input.query_ids, tq, Deadline::Infinite());
  if (!diff.empty()) {
    FaultInjector::Global().Reset();
    return "under fault: " + diff;
  }
  for (size_t i = 0; i < input.query_ids.size(); ++i) {
    if (!batch[i].ok()) continue;
    const bool trained = store.GetPredictor(input.query_ids[i]).ok();
    if (trained &&
        batch[i]->front().degraded != DegradedReason::kPatternUnavailable) {
      FaultInjector::Global().Reset();
      return "trained object " + std::to_string(input.query_ids[i]) +
             " not stamped kPatternUnavailable";
    }
  }
  FaultInjector::Global().Reset();
  return "";
}

TEST(PropBatchExecTest, AlwaysFaultSchedulesDegradeBothPathsAlike) {
  Property<BatchCase> property("batch-under-faults", GenBatchCase,
                               CheckAlwaysFaultDegradesBothPathsAlike);
  property.WithShrinker(ShrinkBatchCase);
  RunnerOptions options;
  options.num_cases = 8;
  options.max_shrink_checks = 24;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

#else  // !HPM_ENABLE_FAULTS

TEST(PropBatchExecTest, AlwaysFaultSchedulesDegradeBothPathsAlike) {
  GTEST_SKIP() << "fault hooks compiled out";
}

#endif  // HPM_ENABLE_FAULTS

}  // namespace
}  // namespace hpm
