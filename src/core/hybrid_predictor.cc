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

/// Why the pattern side cannot be consulted for `query` in time (or at
/// all) — an expired deadline, else a pattern-lookup fault — or kNone
/// when it can. The query is then served the cheap RMF answer instead of
/// failing.
DegradedReason PatternSideBlocked(const PredictiveQuery& query) {
  if (query.deadline.expired()) return DegradedReason::kDeadlineExceeded;
  if (!HPM_FAULT_HIT("core/pattern_lookup").ok()) {
    return DegradedReason::kPatternUnavailable;
  }
  return DegradedReason::kNone;
}

/// Scratch buffers come from the execution context's lane when the query
/// runs under the serving pipeline; direct callers get `local` and
/// identical behaviour.
PredictScratch& ScratchFor(const PredictiveQuery& query,
                           PredictScratch* local) {
  return query.context != nullptr ? query.context->lane(query.lane) : *local;
}

/// Encodes BQP's query key for the raw-time interval
/// [tq - reach, tq + reach] into `s->query_key`. The interval is mapped
/// to period offsets from tq's own offset `tq_offset`, so no raw time is
/// ever formed: tq + reach would overflow for a far-future tq. `reach`
/// itself stays small, because BQP stops widening at the first round
/// whose interval spans a period.
void EncodeBackwardInterval(const KeyTables& tables,
                            const std::vector<int>& premise,
                            Timestamp tq_offset, Timestamp reach,
                            Timestamp period, PredictScratch* s) {
  if (2 * reach >= period) {
    tables.EncodeQueryIntervalInto(premise, 0, period - 1, &s->query_key);
    return;
  }
  // The interval may wrap; the second key buffer carries its tail.
  const Timestamp lo_off = ((tq_offset - reach) % period + period) % period;
  const Timestamp hi_off = ((tq_offset + reach) % period + period) % period;
  if (lo_off <= hi_off) {
    tables.EncodeQueryIntervalInto(premise, lo_off, hi_off, &s->query_key);
  } else {
    tables.EncodeQueryIntervalInto(premise, lo_off, period - 1,
                                   &s->query_key);
    tables.EncodeQueryIntervalInto(premise, 0, hi_off, &s->interval_key);
    s->query_key.UnionWith(s->interval_key);
  }
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

StatusOr<std::vector<Prediction>> HybridPredictor::MotionFallback(
    const PredictiveQuery& query) const {
  counters_.motion_fallbacks.fetch_add(1, std::memory_order_relaxed);
  StatusOr<Prediction> fallback = MotionFunctionPredict(query);
  if (!fallback.ok()) return fallback.status();
  return std::vector<Prediction>{*fallback};
}

StatusOr<std::vector<Prediction>> HybridPredictor::ForwardProcessing(
    const PredictiveQuery& query) const {
  counters_.forward_queries.fetch_add(1, std::memory_order_relaxed);
  if (const DegradedReason blocked = PatternSideBlocked(query);
      blocked != DegradedReason::kNone) {
    return DegradedAnswer(query, blocked);
  }
  PredictScratch local;
  PredictScratch& s = ScratchFor(query, &local);

  // The query key: the recently visited regions and tq's period offset.
  // Without one no pattern can qualify.
  std::vector<int> premise;
  QueryPremise(query, &premise);
  if (premise.empty() ||
      !key_tables_
           .EncodeQueryInto(premise, query.query_time % regions_.period(),
                            &s.query_key)
           .ok()) {
    return MotionFallback(query);
  }

  TptSearchStats stats;
  tpt_.SearchInto(s.query_key, SearchMode::kPremiseAndConsequence,
                  &s.tpt_hits, &stats);
  if (query.context != nullptr) query.context->AddTptStats(stats);

  s.candidates.clear();
  s.candidates.reserve(s.tpt_hits.size());
  for (const FrozenLeaf* hit : s.tpt_hits) {
    // Equation 2: Sp = Sr * c (premise similarity and confidence are
    // independent evidences -> compound probability). SearchInto checked
    // the query premise width against the arena's.
    const double sr = PremiseSimilarity(
        tpt_.PremiseWords(*hit), s.query_key.premise().words(),
        tpt_.premise_words(), options_.weight_function);
    s.candidates.push_back(
        PatternCandidate(regions_, *hit, sr * hit->confidence));
  }
  if (s.candidates.empty()) return MotionFallback(query);
  counters_.pattern_answers.fetch_add(1, std::memory_order_relaxed);
  return RankAndTake(&s.candidates, query.k);
}

StatusOr<std::vector<Prediction>> HybridPredictor::BackwardProcessing(
    const PredictiveQuery& query) const {
  counters_.backward_queries.fetch_add(1, std::memory_order_relaxed);
  if (const DegradedReason blocked = PatternSideBlocked(query);
      blocked != DegradedReason::kNone) {
    return DegradedAnswer(query, blocked);
  }
  PredictScratch local;
  PredictScratch& s = ScratchFor(query, &local);

  const Timestamp period = regions_.period();
  const Timestamp tq_offset = query.query_time % period;
  std::vector<int> premise;
  QueryPremise(query, &premise);
  const Timestamp t_eps = std::max<Timestamp>(1, options_.time_relaxation);
  const double premise_penalty = std::min(
      1.0, static_cast<double>(options_.distant_threshold) /
               static_cast<double>(query.PredictionLength()));

  // Widen the consequence interval by t_eps per round until a pattern is
  // found or its lower edge reaches the current time.
  for (Timestamp round = 1;; ++round) {
    // Each widening step is another TPT search, so the deadline is
    // re-checked per round.
    if (round > 1 && query.deadline.expired()) {
      return DegradedAnswer(query, DegradedReason::kDeadlineExceeded);
    }
    EncodeBackwardInterval(key_tables_, premise, tq_offset, round * t_eps,
                           period, &s);
    if (s.query_key.consequence().Any()) {
      TptSearchStats stats;
      tpt_.SearchInto(s.query_key, SearchMode::kConsequenceOnly,
                      &s.tpt_hits, &stats);
      if (query.context != nullptr) query.context->AddTptStats(stats);
    } else {
      s.tpt_hits.clear();
    }

    if (!s.tpt_hits.empty()) {
      // A consequence-only search never compared premise widths; the
      // scoring below reads the query's premise words against the
      // arena's.
      HPM_CHECK(s.query_key.premise().size() == tpt_.premise_bits());
      s.candidates.clear();
      s.candidates.reserve(s.tpt_hits.size());
      for (const FrozenLeaf* hit : s.tpt_hits) {
        const int time_id = wordops::HighestSetBit(
            tpt_.ConsequenceWords(*hit), tpt_.consequence_words());
        const Timestamp t = key_tables_.OffsetForTimeId(time_id);
        const double sc = ConsequenceSimilarity(t, tq_offset, t_eps);
        const double sr = PremiseSimilarity(
            tpt_.PremiseWords(*hit), s.query_key.premise().words(),
            tpt_.premise_words(), options_.weight_function);
        // Equation 5: Sp = (Sr * d / (tq - tc) + Sc) * c — the premise
        // evidence is penalised as the prediction length grows.
        s.candidates.push_back(PatternCandidate(
            regions_, *hit, (sr * premise_penalty + sc) * hit->confidence));
      }
      counters_.pattern_answers.fetch_add(1, std::memory_order_relaxed);
      return RankAndTake(&s.candidates, query.k);
    }

    // No qualified pattern anywhere before the interval hit the current
    // time: fall back instead of widening further. Once the interval
    // spans a whole period, every later round would re-run this same
    // full-period search, so the answer is already the fallback.
    if (query.query_time - (round + 1) * t_eps <= query.current_time ||
        2 * round * t_eps >= period) {
      return MotionFallback(query);
    }
  }
}

StatusOr<std::vector<Prediction>> HybridPredictor::Predict(
    const PredictiveQuery& query) const {
  HPM_RETURN_IF_ERROR(ValidateQuery(query));
  if (query.PredictionLength() < options_.distant_threshold) {
    return ForwardProcessing(query);
  }
  return BackwardProcessing(query);
}

StatusOr<std::vector<Prediction>> HybridPredictor::ForwardQuery(
    const PredictiveQuery& query) const {
  HPM_RETURN_IF_ERROR(ValidateQuery(query));
  return ForwardProcessing(query);
}

StatusOr<std::vector<Prediction>> HybridPredictor::BackwardQuery(
    const PredictiveQuery& query) const {
  HPM_RETURN_IF_ERROR(ValidateQuery(query));
  return BackwardProcessing(query);
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

}  // namespace hpm
