#include "core/hybrid_predictor.h"

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "bitset/word_ops.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "core/exec_context.h"
#include "mining/offline_miner.h"
#include "mining/transaction.h"
#include "motion/rmf_memo.h"

namespace hpm {

HybridPredictor::AtomicQueryCounters&
HybridPredictor::AtomicQueryCounters::operator=(
    const AtomicQueryCounters& other) {
  forward_queries.store(other.forward_queries.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  backward_queries.store(
      other.backward_queries.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  pattern_answers.store(other.pattern_answers.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  motion_fallbacks.store(
      other.motion_fallbacks.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  degraded_answers.store(
      other.degraded_answers.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

QueryCounters HybridPredictor::AtomicQueryCounters::Snapshot() const {
  QueryCounters snapshot;
  snapshot.forward_queries = forward_queries.load(std::memory_order_relaxed);
  snapshot.backward_queries =
      backward_queries.load(std::memory_order_relaxed);
  snapshot.pattern_answers = pattern_answers.load(std::memory_order_relaxed);
  snapshot.motion_fallbacks =
      motion_fallbacks.load(std::memory_order_relaxed);
  snapshot.degraded_answers =
      degraded_answers.load(std::memory_order_relaxed);
  return snapshot;
}

QueryCounters HybridPredictor::counters() const {
  return counters_.Snapshot();
}

void HybridPredictor::ResetCounters() const {
  counters_ = AtomicQueryCounters{};
}

HybridPredictor::HybridPredictor(HybridPredictorOptions options,
                                 FrequentRegionSet regions,
                                 std::vector<int> supports,
                                 KeyTables key_tables, FrozenTpt tpt)
    : options_(options),
      regions_(std::move(regions)),
      supports_(std::move(supports)),
      key_tables_(std::move(key_tables)),
      tpt_(std::move(tpt)) {}

StatusOr<std::unique_ptr<HybridPredictor>> HybridPredictor::Train(
    const Trajectory& history, const HybridPredictorOptions& options) {
  if (options.distant_threshold <= 0 ||
      options.distant_threshold >= options.regions.period) {
    return Status::InvalidArgument(
        "distant threshold d must satisfy 0 < d < period");
  }
  if (options.time_relaxation < 0) {
    return Status::InvalidArgument("time relaxation must be >= 0");
  }
  HPM_INJECT_FAULT("core/train");

  Stopwatch timer;

  // The one-shot pass: discovery -> transactions -> Apriori.
  StatusOr<OfflineMineResult> offline =
      MineOffline(history, options.regions, options.mining);
  if (!offline.ok()) return offline.status();
  FrequentRegionSet& region_set = offline->discovery.region_set;
  AprioriResult& mined = offline->mined;

  TrainingSummary summary;
  summary.num_sub_trajectories = offline->transactions.size();
  summary.mining_stats = mined.stats;
  KeyTables tables = KeyTables::Build(region_set, mined.patterns);
  StatusOr<std::unique_ptr<HybridPredictor>> predictor =
      Assemble(options, std::move(region_set), mined.patterns,
               std::move(tables), summary);
  if (!predictor.ok()) return predictor.status();
  (*predictor)->summary_.train_seconds = timer.ElapsedSeconds();
  return predictor;
}

StatusOr<std::unique_ptr<HybridPredictor>> HybridPredictor::Assemble(
    const HybridPredictorOptions& options, FrequentRegionSet regions,
    const std::vector<TrajectoryPattern>& patterns, KeyTables tables,
    TrainingSummary summary) {
  std::vector<IndexedPattern> indexed;
  std::vector<int> supports;
  indexed.reserve(patterns.size());
  supports.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const TrajectoryPattern& p = patterns[i];
    indexed.push_back({tables.EncodePattern(p, regions), p.confidence,
                       p.consequence, static_cast<int>(i)});
    supports.push_back(p.support);
  }
  StatusOr<TptTree> tpt = TptTree::BulkLoad(std::move(indexed), options.tpt);
  if (!tpt.ok()) return tpt.status();
  summary.tpt_memory_bytes = tpt->MemoryBytes();
  FrozenTpt frozen = FrozenTpt::Freeze(*tpt);

  auto predictor = std::unique_ptr<HybridPredictor>(
      new HybridPredictor(options, std::move(regions), std::move(supports),
                          std::move(tables), std::move(frozen)));
  summary.num_frequent_regions = predictor->regions_.NumRegions();
  summary.num_patterns = predictor->tpt_.size();
  summary.tpt_frozen_bytes = predictor->tpt_.MemoryBytes();
  summary.tpt_height = predictor->tpt_.Height();
  predictor->summary_ = summary;
  return predictor;
}

std::vector<TrajectoryPattern> HybridPredictor::Patterns() const {
  HPM_CHECK(tpt_.empty() ||
            tpt_.premise_bits() == key_tables_.premise_key_length());
  // Pattern ids are dense: Assemble numbers the rules 0..n-1 and the
  // loader rejects any other id set.
  std::vector<TrajectoryPattern> patterns(tpt_.size());
  for (const FrozenLeaf& leaf : tpt_.patterns()) {
    const size_t id = static_cast<size_t>(leaf.pattern_id);
    TrajectoryPattern& p = patterns[id];
    p.premise = key_tables_.DecodePremise(tpt_.PremiseWords(leaf));
    p.consequence = leaf.consequence_region;
    p.confidence = leaf.confidence;
    p.support = supports_[id];
  }
  return patterns;
}

void HybridPredictor::QueryPremise(const PredictiveQuery& query,
                                   std::vector<int>* premise) const {
  std::span<const TimedPoint> recent = query.recent_movements;
  if (options_.premise_horizon > 0 &&
      recent.size() > static_cast<size_t>(options_.premise_horizon)) {
    recent = recent.last(static_cast<size_t>(options_.premise_horizon));
  }
  MapMovementsToRegions(regions_, recent, options_.region_match_slack,
                        premise);
}

std::vector<Prediction> HybridPredictor::RankAndTake(
    std::vector<Prediction>* candidates, int k) const {
  std::sort(candidates->begin(), candidates->end(),
            [](const Prediction& a, const Prediction& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.confidence > b.confidence;
            });
  const size_t take =
      std::min(candidates->size(), static_cast<size_t>(std::max(k, 0)));
  return std::vector<Prediction>(candidates->begin(),
                                 candidates->begin() + take);
}

Prediction MotionFunctionAnswer(const PredictiveQuery& query,
                                const RmfOptions& rmf) {
  RmfMemo local;
  const RmfMemo& memo = query.motion != nullptr ? *query.motion : local;
  bool computed = false;
  const RecursiveMotionFunction& fitted =
      memo.GetOrFit(query.recent_movements, rmf, &computed);
  if (query.context != nullptr) {
    query.context->CountMotionFit();
    if (computed) query.context->CountMotionFitComputed();
  }
  Prediction prediction;
  prediction.source = PredictionSource::kMotionFunction;
  // A degenerate history (a single point) has no fitted model: the best
  // available answer is then the last known location.
  StatusOr<Point> p = fitted.Predict(query.query_time);
  prediction.location =
      p.ok() ? *p : query.recent_movements.back().location;
  return prediction;
}

StatusOr<Prediction> HybridPredictor::MotionFunctionPredict(
    const PredictiveQuery& query) const {
  HPM_RETURN_IF_ERROR(ValidateQuery(query));
  return MotionFunctionAnswer(query, options_.rmf);
}

StatusOr<std::vector<Prediction>> HybridPredictor::DegradedPredict(
    const PredictiveQuery& query, DegradedReason reason) const {
  HPM_CHECK(reason != DegradedReason::kNone);
  HPM_RETURN_IF_ERROR(ValidateQuery(query));
  if (query.PredictionLength() < options_.distant_threshold) {
    counters_.forward_queries.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.backward_queries.fetch_add(1, std::memory_order_relaxed);
  }
  return DegradedAnswer(query, reason);
}

StatusOr<std::vector<Prediction>> HybridPredictor::DegradedAnswer(
    const PredictiveQuery& query, DegradedReason reason) const {
  counters_.motion_fallbacks.fetch_add(1, std::memory_order_relaxed);
  counters_.degraded_answers.fetch_add(1, std::memory_order_relaxed);
  StatusOr<Prediction> fallback = MotionFunctionPredict(query);
  if (!fallback.ok()) return fallback.status();
  fallback->degraded = reason;
  return std::vector<Prediction>{*fallback};
}

namespace {

/// Runs a PredictTask to completion sequentially — the non-batched entry
/// points are Step-to-done over the same machinery the batch executor
/// interleaves, which is what keeps the two bit-identical.
StatusOr<std::vector<Prediction>> RunToCompletion(
    const HybridPredictor& predictor, const PredictiveQuery& query,
    HybridPredictor::PredictTask::Route route) {
  // Scratch buffers come from the execution context's lane when the query
  // runs under the serving pipeline; direct callers get function-local
  // buffers and identical behaviour.
  PredictScratch local;
  PredictScratch& s = query.context != nullptr
                          ? query.context->lane(query.lane)
                          : local;
  HybridPredictor::PredictTask task;
  task.Start(predictor, query, &s, route);
  while (!task.Step(SIZE_MAX)) {
  }
  return task.TakeResult();
}

/// The unranked pattern answer for TPT hit `hit` scored `score`.
Prediction PatternCandidate(const FrequentRegionSet& regions,
                            const FrozenLeaf& hit, double score) {
  const FrequentRegion& region = regions.Region(hit.consequence_region);
  Prediction p;
  p.location = region.center;
  p.uncertainty = region.mbr;
  p.score = score;
  p.source = PredictionSource::kPattern;
  p.pattern_id = hit.pattern_id;
  p.consequence_region = hit.consequence_region;
  p.confidence = hit.confidence;
  return p;
}

}  // namespace

void HybridPredictor::PredictTask::CompleteWith(
    StatusOr<std::vector<Prediction>> result) {
  result_ = std::move(result);
  stage_ = Stage::kDone;
  searching_ = false;
}

void HybridPredictor::PredictTask::MotionFallback() {
  // No qualified pattern: call the motion function (Algorithm 2 line 6 /
  // Algorithm 3 line 11).
  predictor_->counters_.motion_fallbacks.fetch_add(1,
                                                   std::memory_order_relaxed);
  StatusOr<Prediction> fallback = predictor_->MotionFunctionPredict(*query_);
  if (!fallback.ok()) {
    CompleteWith(fallback.status());
    return;
  }
  CompleteWith(std::vector<Prediction>{*fallback});
}

bool HybridPredictor::PredictTask::Start(const HybridPredictor& predictor,
                                         const PredictiveQuery& query,
                                         PredictScratch* scratch,
                                         Route route) {
  predictor_ = &predictor;
  query_ = &query;
  scratch_ = scratch;
  stage_ = Stage::kDone;
  searching_ = false;
  round_ = 0;

  const Status valid = ValidateQuery(query);
  if (!valid.ok()) {
    CompleteWith(valid);
    return true;
  }

  if (route == Route::kAuto) {
    route = query.PredictionLength() >= predictor.options_.distant_threshold
                ? Route::kBackward
                : Route::kForward;
  }
  if (route == Route::kForward) {
    predictor.counters_.forward_queries.fetch_add(1,
                                                  std::memory_order_relaxed);
  } else {
    predictor.counters_.backward_queries.fetch_add(1,
                                                   std::memory_order_relaxed);
  }

  // The pattern side is the expensive half; when it cannot be consulted
  // in time (or at all), serve the cheap RMF answer instead of failing.
  if (query.deadline.expired()) {
    CompleteWith(
        predictor.DegradedAnswer(query, DegradedReason::kDeadlineExceeded));
    return true;
  }
  if (!HPM_FAULT_HIT("core/pattern_lookup").ok()) {
    CompleteWith(
        predictor.DegradedAnswer(query, DegradedReason::kPatternUnavailable));
    return true;
  }

  period_ = predictor.regions_.period();
  tq_offset_ = query.query_time % period_;
  predictor.QueryPremise(query, &premise_);

  if (route == Route::kForward) {
    if (!premise_.empty() &&
        predictor.key_tables_
            .EncodeQueryInto(premise_, tq_offset_, &scratch_->query_key)
            .ok()) {
      search_stats_ = TptSearchStats{};
      cursor_ = predictor.tpt_.StartSearch(
          scratch_->query_key, SearchMode::kPremiseAndConsequence,
          &scratch_->tpt_hits, &search_stats_);
      if (!cursor_.done()) {
        searching_ = true;
        stage_ = Stage::kForwardSearch;
        return false;
      }
      FinishForwardSearch();  // Empty tree: the search is already over.
      return true;
    }
    MotionFallback();
    return true;
  }

  // Backward Query Processing (Algorithm 3): widen the consequence
  // interval until a pattern is found or its lower edge reaches the
  // current time.
  t_eps_ = std::max<Timestamp>(1, predictor.options_.time_relaxation);
  const double length = static_cast<double>(query.PredictionLength());
  premise_penalty_ = std::min(
      1.0,
      static_cast<double>(predictor.options_.distant_threshold) / length);
  RunBackwardRounds();
  return done();
}

bool HybridPredictor::PredictTask::Step(size_t max_entry_tests) {
  if (stage_ == Stage::kDone) return true;
  if (!cursor_.Step(max_entry_tests)) return false;
  searching_ = false;
  if (stage_ == Stage::kForwardSearch) {
    FinishForwardSearch();
  } else if (!EndBackwardRound(/*ran_search=*/true)) {
    RunBackwardRounds();
  }
  return done();
}

StatusOr<std::vector<Prediction>> HybridPredictor::PredictTask::TakeResult() {
  HPM_CHECK(stage_ == Stage::kDone);
  return std::move(result_);
}

void HybridPredictor::PredictTask::FinishForwardSearch() {
  if (query_->context != nullptr) query_->context->AddTptStats(search_stats_);
  PredictScratch& s = *scratch_;
  const FrozenTpt& tpt = predictor_->tpt_;
  s.candidates.clear();
  s.candidates.reserve(s.tpt_hits.size());
  for (const FrozenLeaf* hit : s.tpt_hits) {
    // Equation 2: Sp = Sr * c (premise similarity and confidence are
    // independent evidences -> compound probability). StartSearch checked
    // the query premise width against the arena's.
    const double sr = PremiseSimilarity(
        tpt.PremiseWords(*hit), s.query_key.premise().words(),
        tpt.premise_words(), predictor_->options_.weight_function);
    s.candidates.push_back(PatternCandidate(predictor_->regions_, *hit,
                                            sr * hit->confidence));
  }
  if (!s.candidates.empty()) {
    predictor_->counters_.pattern_answers.fetch_add(
        1, std::memory_order_relaxed);
    CompleteWith(predictor_->RankAndTake(&s.candidates, query_->k));
    return;
  }
  MotionFallback();
}

void HybridPredictor::PredictTask::EncodeBackwardRound() {
  PredictScratch& s = *scratch_;
  // The round's raw-time interval is [tq - reach, tq + reach]. It is
  // mapped to period offsets from tq's own offset, so no raw time is ever
  // formed: tq + reach would overflow for a far-future tq. `reach` itself
  // stays small, because EndBackwardRound stops widening at the first
  // round whose interval spans a period.
  const Timestamp reach = round_ * t_eps_;
  if (2 * reach >= period_) {
    predictor_->key_tables_.EncodeQueryIntervalInto(premise_, 0, period_ - 1,
                                                    &s.query_key);
    return;
  }
  // The interval may wrap; encode into the lane's key buffers.
  const Timestamp lo_off = ((tq_offset_ - reach) % period_ + period_) %
                           period_;
  const Timestamp hi_off = ((tq_offset_ + reach) % period_ + period_) %
                           period_;
  if (lo_off <= hi_off) {
    predictor_->key_tables_.EncodeQueryIntervalInto(premise_, lo_off, hi_off,
                                                    &s.query_key);
  } else {
    predictor_->key_tables_.EncodeQueryIntervalInto(premise_, lo_off,
                                                    period_ - 1,
                                                    &s.query_key);
    predictor_->key_tables_.EncodeQueryIntervalInto(premise_, 0, hi_off,
                                                    &s.interval_key);
    s.query_key.UnionWith(s.interval_key);
  }
}

void HybridPredictor::PredictTask::RunBackwardRounds() {
  for (;;) {
    ++round_;
    // Each widening step is another TPT search, so the deadline is
    // re-checked per round.
    if (round_ > 1 && query_->deadline.expired()) {
      CompleteWith(predictor_->DegradedAnswer(
          *query_, DegradedReason::kDeadlineExceeded));
      return;
    }
    EncodeBackwardRound();
    search_stats_ = TptSearchStats{};
    bool ran_search = false;
    if (scratch_->query_key.consequence().Any()) {
      cursor_ = predictor_->tpt_.StartSearch(scratch_->query_key,
                                             SearchMode::kConsequenceOnly,
                                             &scratch_->tpt_hits,
                                             &search_stats_);
      if (!cursor_.done()) {
        searching_ = true;
        stage_ = Stage::kBackwardSearch;
        return;  // Yield; Step() finishes the round.
      }
      ran_search = true;  // Empty tree: the search is already over.
    } else {
      scratch_->tpt_hits.clear();
    }
    if (EndBackwardRound(ran_search)) return;
  }
}

bool HybridPredictor::PredictTask::EndBackwardRound(bool ran_search) {
  if (ran_search && query_->context != nullptr) {
    query_->context->AddTptStats(search_stats_);
  }
  PredictScratch& s = *scratch_;
  if (!s.tpt_hits.empty()) {
    const FrozenTpt& tpt = predictor_->tpt_;
    // A consequence-only search never compared premise widths; the
    // scoring below reads the query's premise words against the arena's.
    HPM_CHECK(s.query_key.premise().size() == tpt.premise_bits());
    s.candidates.clear();
    s.candidates.reserve(s.tpt_hits.size());
    for (const FrozenLeaf* hit : s.tpt_hits) {
      const int time_id = wordops::HighestSetBit(tpt.ConsequenceWords(*hit),
                                                 tpt.consequence_words());
      const Timestamp t = predictor_->key_tables_.OffsetForTimeId(time_id);
      const double sc = ConsequenceSimilarity(t, tq_offset_, t_eps_);
      const double sr = PremiseSimilarity(
          tpt.PremiseWords(*hit), s.query_key.premise().words(),
          tpt.premise_words(), predictor_->options_.weight_function);
      // Equation 5: Sp = (Sr * d / (tq - tc) + Sc) * c — the premise
      // evidence is penalised as the prediction length grows.
      s.candidates.push_back(
          PatternCandidate(predictor_->regions_, *hit,
                           (sr * premise_penalty_ + sc) * hit->confidence));
    }
    predictor_->counters_.pattern_answers.fetch_add(
        1, std::memory_order_relaxed);
    CompleteWith(predictor_->RankAndTake(&s.candidates, query_->k));
    return true;
  }

  // No qualified pattern anywhere before the interval hit the current
  // time: fall back instead of widening further. Once the interval spans
  // a whole period, every later round would re-run this same full-period
  // search, so the answer is already the fallback.
  if (query_->query_time - (round_ + 1) * t_eps_ <= query_->current_time ||
      2 * round_ * t_eps_ >= period_) {
    MotionFallback();
    return true;
  }
  return false;
}

StatusOr<std::vector<Prediction>> HybridPredictor::ForwardQuery(
    const PredictiveQuery& query) const {
  return RunToCompletion(*this, query, PredictTask::Route::kForward);
}

StatusOr<std::vector<Prediction>> HybridPredictor::BackwardQuery(
    const PredictiveQuery& query) const {
  return RunToCompletion(*this, query, PredictTask::Route::kBackward);
}

StatusOr<size_t> HybridPredictor::IncorporateNewHistory(
    const Trajectory& new_history) {
  HPM_INJECT_FAULT("core/train");
  const Timestamp period = options_.regions.period;
  StatusOr<std::vector<Trajectory>> subs =
      new_history.DecomposePeriodic(period);
  if (!subs.ok()) return subs.status();

  // Map each new sub-trajectory onto the existing frequent regions —
  // region discovery stays anchored to the original training pass, as
  // the paper's insertion path assumes a stable region universe.
  std::vector<Transaction> transactions;
  transactions.reserve(subs->size());
  for (const Trajectory& sub : *subs) {
    transactions.emplace_back(
        MapPeriodPointsToVisits(regions_, sub.points(),
                                options_.region_match_slack),
        regions_.NumRegions());
  }

  StatusOr<AprioriResult> mined =
      MineTrajectoryPatterns(transactions, regions_, options_.mining);
  if (!mined.ok()) return mined.status();

  // Append the rules not yet indexed. A rule concluding at a time offset
  // the consequence-key table has never seen grows the key universe.
  std::vector<TrajectoryPattern> combined = Patterns();
  const size_t indexed = combined.size();
  std::set<std::pair<std::vector<int>, int>> existing;
  for (const TrajectoryPattern& p : combined) {
    existing.emplace(p.premise, p.consequence);
  }
  bool new_consequence_offset = false;
  for (TrajectoryPattern& p : mined->patterns) {
    if (existing.count({p.premise, p.consequence})) continue;
    if (key_tables_.TimeIdForOffset(
            regions_.Region(p.consequence).offset) < 0) {
      new_consequence_offset = true;
    }
    combined.push_back(std::move(p));
  }
  const size_t added = combined.size() - indexed;

  // When the key universe grows the tables are rebuilt (keys change
  // length). Either way the TPT is bulk loaded from scratch: bulk loading
  // is sequential insertion, so the result is the exact tree the in-place
  // insertion path would produce. *this changes only once the new index
  // is built, so a failure leaves the model as it was.
  KeyTables tables = new_consequence_offset
                         ? KeyTables::Build(regions_, combined)
                         : key_tables_;
  StatusOr<std::unique_ptr<HybridPredictor>> updated =
      Assemble(options_, regions_, combined, std::move(tables), summary_);
  if (!updated.ok()) return updated.status();
  // Carry the counts so they stay monotonic across the update.
  (*updated)->counters_ = counters_;
  *this = std::move(**updated);
  return added;
}

StatusOr<std::vector<Prediction>> HybridPredictor::Predict(
    const PredictiveQuery& query) const {
  return RunToCompletion(*this, query, PredictTask::Route::kAuto);
}

}  // namespace hpm
