#include "server/query_pipeline.h"

#include <algorithm>
#include <future>
#include <string>

namespace hpm {

const char* StoreOpName(StoreOp op) {
  switch (op) {
    case StoreOp::kReport:
      return "report";
    case StoreOp::kPredict:
      return "predict";
    case StoreOp::kPredictBatch:
      return "predict_batch";
    case StoreOp::kRange:
      return "range";
    case StoreOp::kNearest:
      return "nearest";
  }
  return "unknown";
}

uint64_t StoreOpTotal(const MetricsSnapshot& snapshot,
                      const std::string& family) {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumStoreOps; ++i) {
    total += snapshot.counter(family + "." +
                              StoreOpName(static_cast<StoreOp>(i)));
  }
  return total;
}

StoreMetrics::StoreMetrics(MetricsRegistry* registry) {
  for (size_t i = 0; i < kNumStoreOps; ++i) {
    const std::string op = StoreOpName(static_cast<StoreOp>(i));
    admitted[i] = registry->GetCounter("store.admitted." + op);
    shed[i] = registry->GetCounter("store.shed." + op);
    op_total[i] = registry->GetHistogram("op." + op + "_us");
  }
  degraded_predictions = registry->GetCounter("store.degraded_predictions");
  shards_skipped = registry->GetCounter("store.shards_skipped");
  trains_deferred = registry->GetCounter("store.trains_deferred");
  reports_rejected = registry->GetCounter("store.reports_rejected");
  objects_evaluated = registry->GetCounter("store.objects_evaluated");
  motion_fits = registry->GetCounter("store.motion_fits");
  motion_fits_computed = registry->GetCounter("store.motion_fits_computed");
  epoch_pinned = registry->GetCounter("epoch.pinned");
  epoch_retired = registry->GetCounter("epoch.retired");
  epoch_freed = registry->GetCounter("epoch.freed");
  tpt_nodes_visited = registry->GetCounter("tpt.nodes_visited");
  tpt_entries_tested = registry->GetCounter("tpt.entries_tested");
  tpt_blocks_scanned = registry->GetCounter("tpt.block_scans");
  tpt_frozen_bytes = registry->GetCounter("tpt.frozen_bytes");
  wal_appended = registry->GetCounter("wal.appended");
  wal_synced = registry->GetCounter("wal.synced");
  wal_replayed_records = registry->GetCounter("wal.replayed_records");
  wal_truncated_bytes = registry->GetCounter("wal.truncated_bytes");
  wal_disabled = registry->GetCounter("store.wal_disabled");
  quarantined_files = registry->GetCounter("store.quarantined_files");
  miner_transactions = registry->GetCounter("miner.transactions");
  miner_unmatched_points = registry->GetCounter("miner.unmatched_points");
  miner_promoted = registry->GetCounter("miner.promoted");
  miner_demoted = registry->GetCounter("miner.demoted");
  miner_candidates_evicted = registry->GetCounter("miner.candidates_evicted");
  rebuild_scheduled = registry->GetCounter("rebuild.scheduled");
  rebuild_completed = registry->GetCounter("rebuild.completed");
  rebuild_failed = registry->GetCounter("rebuild.failed");
  rebuild_deferred = registry->GetCounter("rebuild.deferred");
  rebuild_dropped = registry->GetCounter("rebuild.dropped");
  rebuild_build_us = registry->GetHistogram("rebuild.build_us");
  stage_admit = registry->GetHistogram("stage.admit_us");
  stage_plan = registry->GetHistogram("stage.plan_us");
  stage_fanout = registry->GetHistogram("stage.fanout_us");
  stage_merge = registry->GetHistogram("stage.merge_us");
}

QueryPipeline::QueryPipeline(const Env& env, StoreOp op, Deadline deadline)
    : env_(env),
      op_(op),
      ctx_(deadline,
           /*traced=*/env.trace_sink != nullptr && *env.trace_sink != nullptr),
      start_(Clock::now()) {
  root_span_ = ctx_.trace().BeginSpan(StoreOpName(op_));
}

QueryPipeline::~QueryPipeline() { Account(); }

Status QueryPipeline::Admit(const char* what) {
  ScopedSpan span(&ctx_.trace(), "admit", root_span_);
  const StageTimer timer(&admit_micros_);
  StatusOr<AdmissionTicket> ticket = env_.admission->Admit(what);
  if (!ticket.ok()) {
    shed_ = true;
    return ticket.status();
  }
  ticket_.emplace(std::move(*ticket));
  admitted_ = true;
  return Status::OK();
}

bool QueryPipeline::ShouldShedNow(const Deadline& deadline) const {
  if (env_.degrade_queue_depth > 0 &&
      env_.pool->queue_depth() >= env_.degrade_queue_depth) {
    return true;
  }
  if (env_.degrade_min_headroom.count() > 0 && !deadline.is_infinite() &&
      deadline.remaining() < env_.degrade_min_headroom) {
    return true;
  }
  return false;
}

void QueryPipeline::Plan(size_t lanes) {
  planned_ = true;
  ScopedSpan span(&ctx_.trace(), "plan", root_span_);
  const StageTimer timer(&plan_micros_);
  ctx_.set_shed_to_rmf(ShouldShedNow(ctx_.deadline()));
  ctx_.SetLaneCount(std::max<size_t>(lanes, 1));
}

FleetQueryResult QueryPipeline::FanOut(const ShardFn& shard_fn) {
  fanned_out_ = true;
  ScopedSpan span(&ctx_.trace(), "fanout", root_span_);
  const StageTimer timer(&fanout_micros_);

  const std::vector<std::unique_ptr<CircuitBreaker>>& breakers =
      *env_.breakers;
  const size_t n = breakers.size();
  ctx_.SetLaneCount(n);
  std::vector<std::vector<RangeHit>> hits(n);
  std::vector<Status> statuses(n);
  std::vector<char> allowed(n, 0);

  // Breaker gate first: an open breaker costs one atomic-ish check, not
  // a doomed shard query.
  for (size_t s = 0; s < n; ++s) {
    allowed[s] = breakers[s]->Allow() ? 1 : 0;
  }

  if (env_.pool->num_threads() <= 1 || n == 1) {
    for (size_t s = 0; s < n; ++s) {
      if (allowed[s]) {
        statuses[s] = shard_fn(static_cast<int>(s), &hits[s]);
      }
    }
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      if (!allowed[s]) continue;
      // Bounded queue: a saturated pool means the shard runs inline on
      // the calling thread — backpressure, not unbounded queueing.
      StatusOr<std::future<void>> submitted =
          env_.pool->TrySubmit([&shard_fn, &hits, &statuses, s] {
            statuses[s] = shard_fn(static_cast<int>(s), &hits[s]);
          });
      if (submitted.ok()) {
        futures.push_back(std::move(*submitted));
      } else {
        statuses[s] = shard_fn(static_cast<int>(s), &hits[s]);
      }
    }
    for (std::future<void>& f : futures) f.get();
  }

  FleetQueryResult result;
  for (size_t s = 0; s < n; ++s) {
    if (!allowed[s]) {
      result.partial = true;
      result.skipped_shards.push_back(static_cast<int>(s));
      ctx_.CountSkippedShard();
      continue;
    }
    if (!statuses[s].ok()) {
      // The shard failed: feed its breaker and serve without it rather
      // than failing the whole query.
      breakers[s]->RecordFailure();
      result.partial = true;
      result.skipped_shards.push_back(static_cast<int>(s));
      ctx_.CountSkippedShard();
      continue;
    }
    breakers[s]->RecordSuccess();
    result.hits.insert(result.hits.end(),
                       std::make_move_iterator(hits[s].begin()),
                       std::make_move_iterator(hits[s].end()));
  }
  return result;
}

void QueryPipeline::FanOutChunks(
    size_t total,
    const std::function<void(size_t begin, size_t end, size_t lane)>&
        chunk_fn) {
  fanned_out_ = true;
  ScopedSpan span(&ctx_.trace(), "fanout", root_span_);
  const StageTimer timer(&fanout_micros_);

  const size_t workers = static_cast<size_t>(env_.pool->num_threads());
  if (workers <= 1 || total < 2) {
    ctx_.SetLaneCount(1);
    if (total > 0) chunk_fn(0, total, 0);
    return;
  }
  const size_t chunk = (total + workers - 1) / workers;
  const size_t num_chunks = (total + chunk - 1) / chunk;
  ctx_.SetLaneCount(num_chunks);
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  size_t lane = 0;
  for (size_t begin = 0; begin < total; begin += chunk, ++lane) {
    const size_t end = std::min(begin + chunk, total);
    // Bounded queue: when the pool is saturated the chunk runs inline —
    // the caller pays with its own time (backpressure) rather than
    // growing the queue.
    StatusOr<std::future<void>> submitted = env_.pool->TrySubmit(
        [&chunk_fn, begin, end, lane] { chunk_fn(begin, end, lane); });
    if (submitted.ok()) {
      futures.push_back(std::move(*submitted));
    } else {
      chunk_fn(begin, end, lane);
    }
  }
  for (std::future<void>& f : futures) f.get();
}

void QueryPipeline::MergeRank(
    FleetQueryResult* result,
    const std::function<bool(const RangeHit&, const RangeHit&)>& less,
    int limit) {
  merged_ = true;
  ScopedSpan span(&ctx_.trace(), "merge", root_span_);
  const StageTimer timer(&merge_micros_);
  std::sort(result->hits.begin(), result->hits.end(), less);
  if (limit >= 0 && static_cast<int>(result->hits.size()) > limit) {
    result->hits.resize(static_cast<size_t>(limit));
  }
}

void QueryPipeline::Account() {
  if (accounted_) return;
  accounted_ = true;

  const QueryContext::Totals totals = ctx_.totals();
  if (StoreMetrics* m = env_.metrics; m != nullptr) {
    const size_t op = static_cast<size_t>(op_);
    if (admitted_) m->admitted[op]->Increment();
    if (shed_) m->shed[op]->Increment();
    m->degraded_predictions->Increment(totals.degraded_predictions);
    m->shards_skipped->Increment(totals.shards_skipped);
    m->trains_deferred->Increment(totals.trains_deferred);
    m->reports_rejected->Increment(totals.reports_rejected);
    m->objects_evaluated->Increment(totals.objects_evaluated);
    m->motion_fits->Increment(totals.motion_fits);
    m->motion_fits_computed->Increment(totals.motion_fits_computed);
    m->tpt_nodes_visited->Increment(totals.tpt_nodes_visited);
    m->tpt_entries_tested->Increment(totals.tpt_entries_tested);
    m->tpt_blocks_scanned->Increment(totals.tpt_blocks_scanned);
    m->stage_admit->RecordMicros(admit_micros_);
    if (planned_) m->stage_plan->RecordMicros(plan_micros_);
    if (fanned_out_) m->stage_fanout->RecordMicros(fanout_micros_);
    if (merged_) m->stage_merge->RecordMicros(merge_micros_);
    m->op_total[op]->Record(Clock::now() - start_);
  }

  Trace& trace = ctx_.trace();
  if (trace.enabled()) {
    trace.AddCounter("objects_evaluated", totals.objects_evaluated);
    trace.AddCounter("degraded_predictions", totals.degraded_predictions);
    trace.AddCounter("shards_skipped", totals.shards_skipped);
    trace.AddCounter("motion_fits", totals.motion_fits);
    trace.AddCounter("motion_fits_computed", totals.motion_fits_computed);
    trace.AddCounter("tpt_nodes_visited", totals.tpt_nodes_visited);
    trace.AddCounter("tpt_entries_tested", totals.tpt_entries_tested);
    trace.AddCounter("tpt_blocks_scanned", totals.tpt_blocks_scanned);
    trace.EndSpan(root_span_);
    if (env_.trace_sink != nullptr && *env_.trace_sink != nullptr) {
      (*env_.trace_sink)(StoreOpName(op_), trace);
    }
  }
}

}  // namespace hpm
