#include "server/object_store.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "common/fault_injection.h"
#include "common/retry.h"
#include "common/stopwatch.h"

namespace hpm {

std::string ShardQueryFaultSite(int shard) {
  return "server/shard_query:" + std::to_string(shard);
}

MovingObjectStore::MovingObjectStore(ObjectStoreOptions options)
    : options_(std::move(options)),
      continuous_(std::make_unique<ContinuousState>()),
      metrics_registry_(std::make_unique<MetricsRegistry>()) {
  HPM_CHECK(options_.min_training_periods >= 1);
  HPM_CHECK(options_.recent_window >= 2);
  HPM_CHECK(options_.num_shards >= 1);
  HPM_CHECK(options_.query_threads >= 0);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  ThreadPoolOptions pool_options;
  pool_options.num_threads = options_.query_threads > 0
                                 ? options_.query_threads
                                 : ThreadPool::DefaultThreadCount();
  pool_options.max_queue_depth = options_.max_pool_queue;
  pool_ = std::make_unique<ThreadPool>(pool_options);
  admission_ = std::make_unique<AdmissionController>(options_.admission);
  breakers_.reserve(shards_.size());
  for (int i = 0; i < options_.num_shards; ++i) {
    breakers_.push_back(
        std::make_unique<CircuitBreaker>(options_.breaker));
    if (options_.breaker_listener) {
      auto listener = options_.breaker_listener;
      breakers_.back()->SetStateListener(
          [listener, i](CircuitBreaker::State from,
                        CircuitBreaker::State to) { listener(i, from, to); });
    }
  }
  metrics_ = std::make_unique<StoreMetrics>(metrics_registry_.get());
  wal_disabled_ = std::make_unique<std::atomic<bool>>(false);
  generation_ = std::make_unique<std::atomic<uint64_t>>(0);
  latest_now_ = std::make_unique<std::atomic<Timestamp>>(0);
  replaying_ = std::make_unique<std::atomic<bool>>(false);
  scheduler_mu_ = std::make_unique<std::mutex>();
  scheduler_ptr_ = std::make_unique<std::atomic<RebuildScheduler*>>(nullptr);
  EpochOptions epoch_options;
  epoch_options.pinned_counter = metrics_->epoch_pinned;
  epoch_options.retired_counter = metrics_->epoch_retired;
  epoch_options.freed_counter = metrics_->epoch_freed;
  epoch_ = std::make_unique<EpochManager>(epoch_options);
  if (!options_.durability.wal_dir.empty()) {
    // A journal that cannot be opened degrades the store to non-durable
    // serving instead of failing construction — disk faults degrade.
    if (Status ready = InitWal(/*base_gen=*/0); !ready.ok()) {
      DisableWal(ready);
    }
  }
}

Status MovingObjectStore::InitWal(uint64_t base_gen) {
  const std::string& dir = options_.durability.wal_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::DataLoss("cannot create wal directory " + dir + ": " +
                            ec.message());
  }
  WalWriterOptions wal_options;
  wal_options.sync_policy = options_.durability.sync_policy;
  wal_options.sync_interval = options_.durability.sync_interval;
  wal_options.clock = options_.durability.clock;
  wal_options.max_segment_bytes = options_.durability.max_segment_bytes;
  // Continue each shard's sequence past whatever is already on disk —
  // recovered segments are never appended to, only replayed.
  std::vector<uint64_t> next_seq(shards_.size(), 0);
  for (const WalSegmentInfo& info : ListWalSegments(dir)) {
    if (info.shard >= 0 &&
        static_cast<size_t>(info.shard) < next_seq.size()) {
      next_seq[static_cast<size_t>(info.shard)] =
          std::max(next_seq[static_cast<size_t>(info.shard)], info.seq + 1);
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    StatusOr<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir, static_cast<int>(i), next_seq[i], base_gen,
                        wal_options);
    if (!writer.ok()) {
      return writer.status().Annotate("wal open shard " + std::to_string(i));
    }
    std::lock_guard<std::mutex> lock(shards_[i]->write_mutex);
    shards_[i]->wal = std::move(*writer);
  }
  return Status::OK();
}

void MovingObjectStore::WalAppend(Shard& shard, const WalRecord& record) {
  if (shard.wal == nullptr ||
      wal_disabled_->load(std::memory_order_relaxed)) {
    return;
  }
  bool synced = false;
  if (Status appended = shard.wal->Append(record, &synced);
      !appended.ok()) {
    DisableWal(appended.Annotate("wal append"));
    return;
  }
  metrics_->wal_appended->Increment();
  if (synced) metrics_->wal_synced->Increment();
}

void MovingObjectStore::DisableWal(const Status& cause) const {
  (void)cause;  // the health flag + metric are the diagnostic surface
  bool expected = false;
  if (wal_disabled_->compare_exchange_strong(expected, true,
                                             std::memory_order_relaxed)) {
    metrics_->wal_disabled->Increment();
  }
}

uint64_t MovingObjectStore::ApplyWalRecord(const WalRecord& record) {
  // Crash replay tolerates everything ApplyReplicated refuses: covered
  // records (overlapping rotated segments) and gaps (stale segments)
  // are simply not applied.
  const StatusOr<bool> applied = ApplyReplicated(record);
  return applied.ok() && *applied ? 1 : 0;
}

StatusOr<bool> MovingObjectStore::ApplyReplicated(const WalRecord& record) {
  Shard& shard = ShardFor(record.id);
  if (record.type == WalRecord::Type::kRejected) {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    ++shard.rejected_reports[record.id];
    WalAppend(shard, record);
    return true;
  }
  if (record.type == WalRecord::Type::kRejectedBaseline) {
    // Save-time tally seed: the snapshot this segment sits on top of
    // doesn't carry rejection counts, so the baseline restores them.
    // Assignment (not increment) keeps replay idempotent when several
    // baselines for the same object appear across segments.
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    if (record.t >= 0) {
      shard.rejected_reports[record.id] = static_cast<uint64_t>(record.t);
      WalAppend(shard, record);
    }
    return true;
  }
  if (!std::isfinite(record.x) || !std::isfinite(record.y) ||
      record.t < 0) {
    // Journaled reports were validated at ingest; refuse bad replays.
    return Status::InvalidArgument("malformed journal record for object " +
                                   std::to_string(record.id));
  }
  {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    auto it = shard.records.find(record.id);
    const Timestamp next =
        it == shard.records.end()
            ? 0
            : static_cast<Timestamp>(it->second->history.size());
    // t < next: the local state already contains this record (segments
    // rotated out mid-save overlap the generation that covered them;
    // replication re-delivers across follower restarts).
    if (record.t < next) return false;
    // t > next: a gap from a stale, retired or wrongly ordered segment —
    // never fabricate history. A follower getting this must resync.
    if (record.t > next) {
      return Status::OutOfRange(
          "journal gap for object " + std::to_string(record.id) +
          ": record t=" + std::to_string(record.t) + ", next=" +
          std::to_string(next));
    }
    // A store with its own journal attached re-journals the applied
    // record, exactly like live ingest; during LoadFromDirectory replay
    // no writer is attached yet and the journaling is a no-op.
    AppendReport(shard, record.id, it, Point{record.x, record.y});
  }
  // Re-run the training thresholds exactly as live ingest would have:
  // the replayed store's models then match an uninterrupted store's.
  // A training failure leaves the history intact (thresholds re-fire on
  // the next report), so it never fails the recovery.
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kReport,
                         Deadline::Infinite());
  (void)MaybeTrain(shard, record.id, pipeline,
                   /*allow_background=*/
                   !replaying_->load(std::memory_order_relaxed));
  return true;
}

size_t MovingObjectStore::ShardIndex(ObjectId id, size_t num_shards) {
  // splitmix64 finaliser: object ids are often sequential, and the
  // identity hash would put runs of ids on the same shard.
  uint64_t x = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

const MovingObjectStore::ObjectRecord* MovingObjectStore::ShardTable::Find(
    ObjectId id) const {
  const auto it = std::lower_bound(
      records.begin(), records.end(), id,
      [](const ObjectRecord* record, ObjectId key) { return record->id < key; });
  if (it == records.end() || (*it)->id != id) return nullptr;
  return *it;
}

const MovingObjectStore::ObjectView* MovingObjectStore::BuildView(
    const ObjectRecord& record) const {
  auto* view = new ObjectView;
  view->id = record.id;
  view->history_size = record.history.size();
  view->now = static_cast<Timestamp>(record.history.size()) - 1;
  if (record.history.size() >= 2) {
    view->recent =
        record.history.RecentMovements(view->now, options_.recent_window);
  }
  view->predictor = record.predictor;
  return view;
}

void MovingObjectStore::PublishView(ObjectRecord& record,
                                    const ObjectView* view) {
  const ObjectView* old =
      record.view.exchange(view, std::memory_order_release);
  if (old != nullptr) epoch_->Retire(old);
  Timestamp latest = latest_now_->load(std::memory_order_relaxed);
  while (view->now > latest &&
         !latest_now_->compare_exchange_weak(latest, view->now,
                                             std::memory_order_relaxed)) {
  }
}

Status MovingObjectStore::CheckHorizon(Timestamp tq, Timestamp now) {
  if (tq > now + kMaxPredictionHorizon) {
    return Status::InvalidArgument(
        "query time lies more than " +
        std::to_string(kMaxPredictionHorizon) + " ticks in the future");
  }
  return Status::OK();
}

void MovingObjectStore::PublishTable(Shard& shard) {
  auto* table = new ShardTable;
  table->records.reserve(shard.records.size());
  // The record map is id-sorted, so the table comes out Find()-able.
  for (const auto& [id, record] : shard.records) {
    table->records.push_back(record.get());
  }
  const ShardTable* old =
      shard.table.exchange(table, std::memory_order_release);
  epoch_->Retire(old);
}

const MovingObjectStore::ObjectView* MovingObjectStore::FindView(
    const Shard& shard, ObjectId id) const {
  const ShardTable* table = shard.table.load(std::memory_order_acquire);
  const ObjectRecord* record = table->Find(id);
  if (record == nullptr) return nullptr;
  return record->view.load(std::memory_order_acquire);
}

QueryPipeline::Env MovingObjectStore::PipelineEnv() const {
  QueryPipeline::Env env;
  env.admission = admission_.get();
  env.pool = pool_.get();
  env.breakers = &breakers_;
  env.metrics = metrics_.get();
  env.degrade_queue_depth = options_.degrade_queue_depth;
  env.degrade_min_headroom = options_.degrade_min_headroom;
  env.trace_sink = options_.trace_sink ? &options_.trace_sink : nullptr;
  return env;
}

void MovingObjectStore::RecordRejectedReport(ObjectId id,
                                             QueryContext& ctx) {
  ctx.CountRejectedReport();
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.write_mutex);
  ++shard.rejected_reports[id];
  WalRecord journal;
  journal.type = WalRecord::Type::kRejected;
  journal.id = id;
  WalAppend(shard, journal);
}

uint64_t MovingObjectStore::RejectedReports(ObjectId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.write_mutex);
  const auto it = shard.rejected_reports.find(id);
  return it == shard.rejected_reports.end() ? 0 : it->second;
}

Status MovingObjectStore::Ingest(ObjectId id, const Point& location,
                                 const Timestamp* expected_t) {
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kReport,
                         Deadline::Infinite());
  QueryContext& ctx = pipeline.context();

  // Input validation precedes admission: a malformed report consumes no
  // admission token (it is rejected, not shed).
  if (expected_t != nullptr && *expected_t < 0) {
    RecordRejectedReport(id, ctx);
    return Status::InvalidArgument("report: negative timestamp");
  }
  if (!std::isfinite(location.x) || !std::isfinite(location.y)) {
    RecordRejectedReport(id, ctx);
    return Status::InvalidArgument(
        "report: non-finite coordinate rejected");
  }
  HPM_RETURN_IF_ERROR(pipeline.Admit("report"));
  pipeline.Plan(1);

  Shard& shard = ShardFor(id);
  Status appended = pipeline.RunFanOut([&]() -> Status {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    // find(), not emplace first: a rejected report for an unknown object
    // must not create a phantom entry.
    auto it = shard.records.find(id);
    if (expected_t != nullptr) {
      const Timestamp next =
          it == shard.records.end()
              ? 0
              : static_cast<Timestamp>(it->second->history.size());
      if (*expected_t != next) {
        ++shard.rejected_reports[id];
        ctx.CountRejectedReport();
        WalRecord journal;
        journal.type = WalRecord::Type::kRejected;
        journal.id = id;
        WalAppend(shard, journal);
        return Status::InvalidArgument(
            *expected_t < next
                ? "report: non-monotone timestamp (object clock is at " +
                      std::to_string(next) + ")"
                : "report: timestamp gap (object clock is at " +
                      std::to_string(next) + ")");
      }
    }
    AppendReport(shard, id, it, location);
    return Status::OK();
  });
  HPM_RETURN_IF_ERROR(appended);
  HPM_RETURN_IF_ERROR(MaybeTrain(shard, id, pipeline,
                                 /*allow_background=*/true));
  if (HasContinuousQueries()) {
    pipeline.RunMerge([&] {
      const EpochManager::Guard guard = epoch_->Pin();
      const ObjectView* view = FindView(shard, id);
      if (view != nullptr) EvaluateContinuousQueries(*view);
    });
  }
  return Status::OK();
}

void MovingObjectStore::AppendReport(Shard& shard, ObjectId id,
                                     RecordMap::iterator it,
                                     const Point& location) {
  const bool created = it == shard.records.end();
  // Journal before the epoch-published view swap: once a reader can
  // observe the report, a crash must replay it. A WAL failure here
  // degrades the store to non-durable serving — the report still lands.
  WalRecord journal;
  journal.type = WalRecord::Type::kReport;
  journal.id = id;
  journal.t =
      created ? 0 : static_cast<Timestamp>(it->second->history.size());
  journal.x = location.x;
  journal.y = location.y;
  WalAppend(shard, journal);
  if (created) {
    it = shard.records.emplace(id, std::make_unique<ObjectRecord>(id)).first;
    if (options_.rebuild.incremental) it->second->miner = NewMiner();
  }
  ObjectRecord& record = *it->second;
  record.history.Append(location);
  if (record.miner != nullptr) record.miner->Observe(location);
  // View before table: a record must never be reachable viewless.
  PublishView(record, BuildView(record));
  if (created) PublishTable(shard);
}

Status MovingObjectStore::ReportLocation(ObjectId id,
                                         const Point& location) {
  return Ingest(id, location, nullptr);
}

Status MovingObjectStore::ReportLocationAt(ObjectId id, Timestamp t,
                                           const Point& location) {
  return Ingest(id, location, &t);
}

Status MovingObjectStore::ReportTrajectory(ObjectId id,
                                           const Trajectory& trajectory) {
  for (const Point& p : trajectory.points()) {
    HPM_RETURN_IF_ERROR(ReportLocation(id, p));
  }
  return Status::OK();
}

Status MovingObjectStore::MaybeTrain(Shard& shard, ObjectId id,
                                     QueryPipeline& pipeline,
                                     bool allow_background) {
  // Decide under the writer lock; BuildModel mines outside it.
  ModelBuild kind = ModelBuild::kInitial;
  {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    ObjectRecord& record = *shard.records.at(id);
    if (record.training_in_flight) return Status::OK();
    if (record.predictor == nullptr) {
      const size_t needed =
          static_cast<size_t>(options_.min_training_periods) *
          static_cast<size_t>(options_.predictor.regions.period);
      if (record.history.size() < needed) return Status::OK();
    } else if (options_.rebuild.incremental) {
      // A trained model is refreshed only when its miner's pattern set
      // has measurably moved, not merely when time has passed.
      if (record.miner == nullptr || !record.miner->has_regions() ||
          record.miner->drift() < options_.rebuild.drift_threshold ||
          record.miner->window_end() <= record.consumed_samples) {
        return Status::OK();
      }
      kind = ModelBuild::kRebuild;
    } else {
      return Status::OK();  // Without rebuilds the first model stays.
    }
    // Training is the most expendable work in the system: under rung-1
    // pressure it is deferred outright — the trigger stays satisfied, so
    // the next report after pressure clears picks it up. (Background
    // rebuilds get their own deferral in the scheduler's worker; the
    // check here covers the inline paths.)
    if (pipeline.ShouldShedNow(Deadline::Infinite())) {
      pipeline.context().CountDeferredTrain();
      return Status::OK();
    }
  }

  if (kind == ModelBuild::kRebuild && options_.rebuild.background &&
      allow_background) {
    switch (EnsureScheduler()->Enqueue(id)) {
      case RebuildScheduler::EnqueueResult::kQueued:
        metrics_->rebuild_scheduled->Increment();
        break;
      case RebuildScheduler::EnqueueResult::kAlreadyPending:
        break;
      case RebuildScheduler::EnqueueResult::kDropped:
        // Drift persists, so a later report re-requests the rebuild.
        metrics_->rebuild_dropped->Increment();
        break;
    }
    return Status::OK();
  }
  return BuildModel(shard, id, kind, &pipeline.context().trace());
}

std::unique_ptr<IncrementalMiner> MovingObjectStore::NewMiner() const {
  IncrementalMinerOptions miner_options = options_.rebuild.miner;
  // The miner must map points to regions exactly as training does, or
  // its transactions (and thus its pattern set) would diverge from what
  // a rebuild mines.
  miner_options.region_match_slack = options_.predictor.region_match_slack;
  auto miner = std::make_unique<IncrementalMiner>(
      miner_options, options_.predictor.regions.period,
      options_.predictor.mining);
  MinerMetricHooks hooks;
  hooks.transactions = metrics_->miner_transactions;
  hooks.unmatched_points = metrics_->miner_unmatched_points;
  hooks.promoted = metrics_->miner_promoted;
  hooks.demoted = metrics_->miner_demoted;
  hooks.candidates_evicted = metrics_->miner_candidates_evicted;
  miner->set_metric_hooks(hooks);
  return miner;
}

RebuildScheduler* MovingObjectStore::EnsureScheduler() {
  if (RebuildScheduler* existing =
          scheduler_ptr_->load(std::memory_order_acquire);
      existing != nullptr) {
    return existing;
  }
  std::lock_guard<std::mutex> lock(*scheduler_mu_);
  if (RebuildScheduler* existing =
          scheduler_ptr_->load(std::memory_order_acquire);
      existing != nullptr) {
    return existing;
  }
  // The worker captures `this`. Created only on the live-ingest path —
  // after the store's address is final — never during LoadFromDirectory
  // replay (see `replaying_`), so the movability contract holds.
  RebuildScheduler::Options scheduler_options;
  scheduler_options.max_pending = options_.rebuild.max_pending;
  scheduler_options.deferred_counter = metrics_->rebuild_deferred;
  // Idle scheduling priority (SCHED_IDLE on Linux): a rebuild consumes
  // only spare CPU and a waking query or ingest thread preempts it, so
  // training ranks below query traffic even with no free core.
  // FlushRebuilds still works: the drainer sleeps, letting the worker run.
  scheduler_options.idle_priority = true;
  scheduler_options.min_start_interval = options_.rebuild.min_rebuild_interval;
  scheduler_ = std::make_unique<RebuildScheduler>(
      scheduler_options,
      [this](ObjectId id) {
        (void)BuildModel(ShardFor(id), id, ModelBuild::kRebuild,
                         /*trace=*/nullptr);
      },
      [this] {
        return options_.degrade_queue_depth > 0 &&
               pool_->queue_depth() >= options_.degrade_queue_depth;
      });
  scheduler_ptr_->store(scheduler_.get(), std::memory_order_release);
  return scheduler_.get();
}

Status MovingObjectStore::BuildModel(Shard& shard, ObjectId id,
                                     ModelBuild kind, Trace* trace) {
  const bool rebuild = kind == ModelBuild::kRebuild;
  // Capture the training input under the writer lock. Re-examine
  // everything: between the trigger and this call (possibly much later,
  // on the background worker) the record may have been trained by
  // someone else or have nothing new. `training_in_flight` keeps a
  // second caller from building the same model concurrently.
  Trajectory input;
  std::shared_ptr<const HybridPredictor> previous;
  size_t consumed = 0;
  {
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    const auto it = shard.records.find(id);
    if (it == shard.records.end()) return Status::OK();
    ObjectRecord& record = *it->second;
    if (record.training_in_flight) return Status::OK();
    if (rebuild) {
      if (record.miner == nullptr || record.predictor == nullptr ||
          record.miner->window_end() <= record.consumed_samples) {
        return Status::OK();
      }
      input = record.miner->WindowTrajectory();
      consumed = record.miner->window_end();
      previous = record.predictor;
    } else {
      if (record.predictor != nullptr) return Status::OK();
      input = record.history;
      const Timestamp period = options_.predictor.regions.period;
      consumed =
          input.NumSubTrajectories(period) * static_cast<size_t>(period);
    }
    record.training_in_flight = true;
  }

  // Mine + freeze off-lock; readers keep serving the published view
  // throughout. A first build retries transient (kUnavailable) failures
  // with backoff, the RNG seeded from the object id so schedules replay.
  // A failed rebuild leaves the last-good model serving, and the drift
  // that triggered it is still there to re-request it.
  ScopedSpan span(trace, "train");
  const Stopwatch timer;
  StatusOr<std::unique_ptr<HybridPredictor>> built = [&]()
      -> StatusOr<std::unique_ptr<HybridPredictor>> {
    if (!rebuild) {
      Random retry_rng(0x74726e5f72747279ULL ^ static_cast<uint64_t>(id));
      return RetryWithBackoff(
          RetryPolicy{}, retry_rng,
          [&] { return HybridPredictor::Train(input, options_.predictor); });
    }
    HPM_RETURN_IF_ERROR(HPM_FAULT_HIT("rebuild/mine"));
    StatusOr<std::unique_ptr<HybridPredictor>> trained =
        HybridPredictor::Train(input, options_.predictor);
    if (trained.ok()) HPM_RETURN_IF_ERROR(HPM_FAULT_HIT("rebuild/freeze"));
    return trained;
  }();

  std::lock_guard<std::mutex> lock(shard.write_mutex);
  ObjectRecord& record = *shard.records.at(id);
  record.training_in_flight = false;
  if (rebuild && built.ok()) {
    if (Status faulted = HPM_FAULT_HIT("rebuild/publish"); !faulted.ok()) {
      built = faulted;
    }
  }
  if (!built.ok()) {
    if (!rebuild) return built.status().Annotate("train");
    metrics_->rebuild_failed->Increment();
    return built.status().Annotate("rebuild object " + std::to_string(id));
  }
  record.predictor =
      std::shared_ptr<const HybridPredictor>(std::move(*built));
  // Monotonic aggregate query counters survive the swap.
  if (previous != nullptr) record.predictor->CarryCountersFrom(*previous);
  // Every build publishes a fresh frozen arena; the counter tracks total
  // bytes built so dashboards see index growth across generations.
  metrics_->tpt_frozen_bytes->Increment(
      record.predictor->summary().tpt_frozen_bytes);
  record.consumed_samples = consumed;
  if (record.miner != nullptr) {
    // The miner adopts the model's region vocabulary: the recount aligns
    // its counts with what the model was built from, and drift restarts
    // from this publish. After the first build, every refresh is a
    // drift-triggered rebuild from the miner's window.
    record.miner->AdoptRegions(record.predictor->regions());
    if (!rebuild) record.consumed_samples = record.miner->window_end();
  }
  // The swap the readers actually see: the new model generation becomes
  // visible with this view publication, and the old view (holding the
  // previous generation's last shared handle once readers drain) heads
  // to limbo.
  PublishView(record, BuildView(record));
  if (rebuild) {
    metrics_->rebuild_completed->Increment();
    metrics_->rebuild_build_us->RecordMicros(
        static_cast<uint64_t>(timer.ElapsedMicros()));
  }
  return Status::OK();
}

Status MovingObjectStore::FlushRebuilds() {
  if (!options_.rebuild.incremental) return Status::OK();
  if (RebuildScheduler* scheduler =
          scheduler_ptr_->load(std::memory_order_acquire);
      scheduler != nullptr) {
    scheduler->Drain();
  }
  Status first = Status::OK();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<ObjectId> pending;
    {
      std::lock_guard<std::mutex> lock(shard->write_mutex);
      for (const auto& [id, record] : shard->records) {
        if (record->predictor != nullptr && record->miner != nullptr &&
            record->miner->window_end() > record->consumed_samples) {
          pending.push_back(id);
        }
      }
    }
    for (const ObjectId id : pending) {
      if (Status rebuilt = BuildModel(*shard, id, ModelBuild::kRebuild,
                                      /*trace=*/nullptr);
          !rebuilt.ok() && first.ok()) {
        first = rebuilt;
      }
    }
  }
  return first;
}

StatusOr<MovingObjectStore::MinerSnapshot> MovingObjectStore::MinerState(
    ObjectId id) const {
  if (!options_.rebuild.incremental) {
    return Status::FailedPrecondition(
        "store is not in incremental-maintenance mode");
  }
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.write_mutex);
  const auto it = shard.records.find(id);
  if (it == shard.records.end() || it->second->miner == nullptr) {
    return Status::NotFound("no miner for object " + std::to_string(id));
  }
  const ObjectRecord& record = *it->second;
  MinerSnapshot snapshot;
  snapshot.drift = record.miner->drift();
  snapshot.window_end = record.miner->window_end();
  snapshot.consumed_samples = record.consumed_samples;
  snapshot.window = record.miner->WindowTrajectory();
  snapshot.patterns = record.miner->CurrentPatterns();
  snapshot.stats = record.miner->stats();
  return snapshot;
}

std::vector<ObjectId> MovingObjectStore::ObjectIds() const {
  const EpochManager::Guard guard = epoch_->Pin();
  std::vector<ObjectId> ids;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const ShardTable* table = shard->table.load(std::memory_order_acquire);
    ids.reserve(ids.size() + table->records.size());
    for (const ObjectRecord* record : table->records) {
      ids.push_back(record->id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t MovingObjectStore::NumObjects() const {
  const EpochManager::Guard guard = epoch_->Pin();
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->table.load(std::memory_order_acquire)->records.size();
  }
  return total;
}

size_t MovingObjectStore::HistoryLength(ObjectId id) const {
  const EpochManager::Guard guard = epoch_->Pin();
  const ObjectView* view = FindView(ShardFor(id), id);
  return view == nullptr ? 0 : view->history_size;
}

StatusOr<std::shared_ptr<const HybridPredictor>>
MovingObjectStore::GetPredictor(ObjectId id) const {
  const EpochManager::Guard guard = epoch_->Pin();
  const ObjectView* view = FindView(ShardFor(id), id);
  if (view == nullptr) {
    return Status::NotFound("unknown object id");
  }
  if (view->predictor == nullptr) {
    return Status::FailedPrecondition("object has no trained model yet");
  }
  return view->predictor;
}

CircuitBreaker::State MovingObjectStore::BreakerState(int shard) const {
  HPM_CHECK(shard >= 0 && shard < static_cast<int>(breakers_.size()));
  return breakers_[static_cast<size_t>(shard)]->state();
}

StatusOr<std::vector<Prediction>> MovingObjectStore::PredictView(
    const ObjectView& view, Timestamp tq, int k, QueryContext* ctx,
    int lane) const {
  if (view.history_size < 2) {
    return Status::FailedPrecondition(
        "object has fewer than 2 reported locations");
  }
  if (tq <= view.now) {
    return Status::InvalidArgument(
        "query time must be after the object's last report");
  }
  if (ctx != nullptr) ctx->CountObjectEvaluated();
  PredictiveQuery query;
  query.recent_movements = view.recent;
  query.current_time = view.now;
  query.query_time = tq;
  query.k = k;
  query.deadline = ctx != nullptr ? ctx->deadline() : Deadline::Infinite();
  query.context = ctx;
  query.lane = lane;
  query.motion = &view.motion;

  if (view.predictor == nullptr) {
    // Cold start: pure motion function until the first training
    // threshold. This is already the cheapest answer, so overload
    // changes nothing.
    return std::vector<Prediction>{
        MotionFunctionAnswer(query, options_.predictor.rmf)};
  }
  if (ctx != nullptr && ctx->shed_to_rmf()) {
    // Rung 1: the pattern side is skipped wholesale; the answer is the
    // exact RMF prediction, visibly stamped Overloaded.
    ctx->CountDegradedPrediction();
    return view.predictor->DegradedPredict(query,
                                           DegradedReason::kOverloaded);
  }
  return view.predictor->Predict(query);
}

StatusOr<std::vector<Prediction>> MovingObjectStore::PredictLocation(
    ObjectId id, Timestamp tq, int k, Deadline deadline) const {
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kPredict, deadline);
  HPM_RETURN_IF_ERROR(pipeline.Admit("predict"));
  pipeline.Plan(1);
  QueryContext& ctx = pipeline.context();

  Shard& shard = ShardFor(id);
  const ObjectView* view =
      pipeline.RunPlan([&]() -> const ObjectView* {
        // Pin before the pointer loads; the guard rides the context, so
        // the view stays live for the pipeline's whole lifetime.
        ctx.AdoptEpochGuard(epoch_->Pin());
        return FindView(shard, id);
      });
  if (view == nullptr) {
    return Status::NotFound("unknown object id");
  }
  HPM_RETURN_IF_ERROR(CheckHorizon(tq, view->now));
  return pipeline.RunFanOut(
      [&] { return PredictView(*view, tq, k, &ctx, /*lane=*/0); });
}

std::vector<StatusOr<std::vector<Prediction>>>
MovingObjectStore::PredictLocationBatch(const std::vector<ObjectId>& ids,
                                        Timestamp tq, int k,
                                        Deadline deadline) const {
  using Result = StatusOr<std::vector<Prediction>>;

  QueryPipeline pipeline(PipelineEnv(), StoreOp::kPredictBatch, deadline);
  // One admission ticket covers the whole batch (it is one request).
  if (Status admitted = pipeline.Admit("predict_batch"); !admitted.ok()) {
    return std::vector<Result>(ids.size(), Result(admitted));
  }
  pipeline.Plan(1);
  QueryContext& ctx = pipeline.context();

  // Plan: pin the query epoch once and resolve every id to its published
  // view (raw pointers, valid under the pin for the pipeline's life).
  std::vector<const ObjectView*> views(ids.size());
  pipeline.RunPlan([&] {
    ctx.AdoptEpochGuard(epoch_->Pin());
    for (size_t i = 0; i < ids.size(); ++i) {
      views[i] = FindView(ShardFor(ids[i]), ids[i]);
    }
  });

  // Fan the batch out in contiguous chunks; each lane predicts its items
  // in input order, exactly as PredictLocation would, and each answer
  // lands at its input index.
  std::vector<Result> results(ids.size(), Result(std::vector<Prediction>{}));
  pipeline.FanOutChunks(
      ids.size(), [&](size_t begin, size_t end, size_t lane) {
        for (size_t i = begin; i < end; ++i) {
          const ObjectView* view = views[i];
          if (view == nullptr) {
            results[i] = Result(Status::NotFound("unknown object id"));
          } else if (Status far = CheckHorizon(tq, view->now); !far.ok()) {
            results[i] = Result(far);
          } else {
            results[i] =
                PredictView(*view, tq, k, &ctx, static_cast<int>(lane));
          }
        }
      });

  return pipeline.RunMerge([&] { return std::move(results); });
}

Status MovingObjectStore::WalkShard(int shard_index, Timestamp tq, int k,
                                    QueryContext& ctx,
                                    const ShardVisitor& visit) const {
  // The per-shard kill switch: a -DHPM_ENABLE_FAULTS=ON build can force
  // this shard's share of every fan-out to fail, driving its breaker.
  if (Status injected = HPM_FAULT_HIT(ShardQueryFaultSite(shard_index));
      !injected.ok()) {
    return injected.Annotate("shard_query");
  }
  const Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  // This lane's pin: everything loaded below stays live until the lane
  // releases (the guard lives in the lane's scratch, so even an early
  // error return stays covered until the pipeline retires the context).
  PredictScratch& scratch = ctx.lane(static_cast<size_t>(shard_index));
  scratch.epoch_guard = epoch_->Pin();
  const ShardTable* table = shard.table.load(std::memory_order_acquire);
  for (const ObjectRecord* record : table->records) {
    const ObjectView& view =
        *record->view.load(std::memory_order_acquire);
    if (view.history_size < 2 || tq <= view.now) continue;
    // The deadline travels inside the query context: once it expires,
    // each remaining object's answer degrades to the cheap RMF
    // prediction instead of the shard aborting with partial coverage.
    StatusOr<std::vector<Prediction>> predictions =
        PredictView(view, tq, k, &ctx, shard_index);
    if (!predictions.ok()) {
      return predictions.status();
    }
    visit(view.id, *predictions);
  }
  scratch.epoch_guard.Release();
  return Status::OK();
}

StatusOr<FleetQueryResult> MovingObjectStore::PredictiveRangeQuery(
    const BoundingBox& range, Timestamp tq, int k_per_object,
    Deadline deadline) const {
  if (range.IsEmpty()) {
    return Status::InvalidArgument("query range is empty");
  }
  if (k_per_object < 1) {
    return Status::InvalidArgument("k_per_object must be >= 1");
  }
  HPM_RETURN_IF_ERROR(
      CheckHorizon(tq, latest_now_->load(std::memory_order_relaxed)));
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kRange, deadline);
  HPM_RETURN_IF_ERROR(pipeline.Admit("range_query"));
  pipeline.Plan(shards_.size());
  QueryContext& ctx = pipeline.context();

  FleetQueryResult result = pipeline.FanOut(
      [this, &range, tq, k_per_object, &ctx](int shard,
                                             std::vector<RangeHit>* hits) {
        return WalkShard(
            shard, tq, k_per_object, ctx,
            [&range, hits](ObjectId id,
                           const std::vector<Prediction>& predictions) {
              const Prediction* best = nullptr;
              for (const Prediction& p : predictions) {
                if (!range.Contains(p.location)) continue;
                if (best == nullptr || p.score > best->score) best = &p;
              }
              if (best != nullptr) hits->push_back({id, *best});
            });
      });
  pipeline.MergeRank(&result, [](const RangeHit& a, const RangeHit& b) {
    if (a.prediction.score != b.prediction.score) {
      return a.prediction.score > b.prediction.score;
    }
    return a.id < b.id;
  });
  return result;
}

StatusOr<FleetQueryResult> MovingObjectStore::PredictiveNearestNeighbors(
    const Point& target, Timestamp tq, int n, Deadline deadline) const {
  if (n < 1) {
    return Status::InvalidArgument("n must be >= 1");
  }
  HPM_RETURN_IF_ERROR(
      CheckHorizon(tq, latest_now_->load(std::memory_order_relaxed)));
  QueryPipeline pipeline(PipelineEnv(), StoreOp::kNearest, deadline);
  HPM_RETURN_IF_ERROR(pipeline.Admit("knn_query"));
  pipeline.Plan(shards_.size());
  QueryContext& ctx = pipeline.context();

  FleetQueryResult result = pipeline.FanOut(
      [this, tq, &ctx](int shard, std::vector<RangeHit>* hits) {
        return WalkShard(
            shard, tq, /*k=*/1, ctx,
            [hits](ObjectId id, const std::vector<Prediction>& predictions) {
              hits->push_back({id, predictions.front()});
            });
      });
  pipeline.MergeRank(
      &result,
      [&target](const RangeHit& a, const RangeHit& b) {
        const double da = SquaredDistance(a.prediction.location, target);
        const double db = SquaredDistance(b.prediction.location, target);
        if (da != db) return da < db;
        return a.id < b.id;
      },
      /*limit=*/n);
  return result;
}

int MovingObjectStore::RegisterContinuousQuery(const BoundingBox& range,
                                               Timestamp horizon,
                                               int k_per_object) {
  HPM_CHECK(!range.IsEmpty());
  HPM_CHECK(horizon >= 1 && horizon <= kMaxPredictionHorizon);
  HPM_CHECK(k_per_object >= 1);
  std::lock_guard<std::mutex> lock(continuous_->mutex);
  ContinuousQuery query;
  query.id = continuous_->next_query_id++;
  query.range = range;
  query.horizon = horizon;
  query.k_per_object = k_per_object;
  const int id = query.id;
  continuous_->queries.emplace(id, std::move(query));
  return id;
}

void MovingObjectStore::UnregisterContinuousQuery(int query_id) {
  std::lock_guard<std::mutex> lock(continuous_->mutex);
  continuous_->queries.erase(query_id);
}

bool MovingObjectStore::HasContinuousQueries() const {
  std::lock_guard<std::mutex> lock(continuous_->mutex);
  return !continuous_->queries.empty();
}

void MovingObjectStore::EvaluateContinuousQueries(const ObjectView& view) {
  if (view.history_size < 2) return;
  std::lock_guard<std::mutex> lock(continuous_->mutex);
  for (auto& [query_id, query] : continuous_->queries) {
    const Timestamp tq = view.now + query.horizon;
    StatusOr<std::vector<Prediction>> predictions =
        PredictView(view, tq, query.k_per_object, /*ctx=*/nullptr,
                    /*lane=*/0);
    if (!predictions.ok()) continue;
    const Prediction* matching = nullptr;
    for (const Prediction& p : *predictions) {
      if (query.range.Contains(p.location)) {
        if (matching == nullptr || p.score > matching->score) matching = &p;
      }
    }
    const bool inside_now = matching != nullptr;
    const auto it = query.inside.find(view.id);
    const bool inside_before = it != query.inside.end() && it->second;
    if (inside_now != inside_before) {
      ContinuousEvent event;
      event.query_id = query_id;
      event.object = view.id;
      event.entered = inside_now;
      event.prediction = inside_now ? *matching : predictions->front();
      event.evaluated_at = tq;
      std::lock_guard<std::mutex> events_lock(continuous_->events_mutex);
      continuous_->pending_events.push_back(std::move(event));
    }
    query.inside[view.id] = inside_now;
  }
}

std::vector<MovingObjectStore::ContinuousEvent>
MovingObjectStore::DrainContinuousEvents() {
  std::lock_guard<std::mutex> lock(continuous_->events_mutex);
  std::vector<ContinuousEvent> events =
      std::move(continuous_->pending_events);
  continuous_->pending_events.clear();
  return events;
}

}  // namespace hpm
