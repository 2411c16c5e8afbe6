// MovingObjectStore: the moving-objects-database front end around
// HybridPredictor.
//
// The paper's model is per-object (patterns are mined from one object's
// history); a deployment tracks a fleet. This store ingests per-object
// location reports, trains a HybridPredictor per object once enough
// periods accumulate (and, with RebuildOptions::incremental, rebuilds it
// when the object's patterns drift), and serves two query types:
//   * point prediction  — "where will object O be at time tq?"
//   * predictive range  — "which objects will probably be inside region
//     R at time tq?" (the query type TPR-tree-style predictive indexes
//     serve, here answered from patterns + motion fallback).
//
// Threading model (see docs/ARCHITECTURE.md §8 for the full story): the
// fleet is hash-partitioned into `num_shards` shards. The query read
// path takes NO lock: each shard publishes an immutable directory
// (ShardTable) of stable-address ObjectRecords, and each record
// publishes an immutable per-object snapshot (ObjectView); readers pin
// the store's epoch with an RAII guard, acquire-load those pointers and
// use them in place. Writers (ingest, training swaps, persistence)
// serialise on a per-shard plain mutex, publish replacement
// tables/views with release stores and Retire() the old ones through
// the EpochManager, which frees them only after every reader pinned at
// or before the retirement has unpinned. Fleet queries fan out across
// shards on an internal thread pool, and batches fan out in contiguous
// chunks on the same pool. Every public member is safe to call
// concurrently from any number of threads, except move
// construction/assignment and SaveToDirectory/LoadFromDirectory's
// returned store before it is published to other threads.

#ifndef HPM_SERVER_OBJECT_STORE_H_
#define HPM_SERVER_OBJECT_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/admission.h"
#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/exec_context.h"
#include "core/hybrid_predictor.h"
#include "io/wal.h"
#include "mining/incremental_miner.h"
#include "motion/rmf_memo.h"
#include "server/query_pipeline.h"
#include "server/rebuild_scheduler.h"
#include "server/store_types.h"

namespace hpm {

/// The fault site that fails shard `shard`'s share of every fan-out
/// query in a -DHPM_ENABLE_FAULTS=ON build: "server/shard_query:<shard>".
/// Arming it `always` is the circuit-breaker kill switch.
std::string ShardQueryFaultSite(int shard);

/// Durable-ingest configuration (docs/ROBUSTNESS.md has the durability
/// matrix and the degradation contract).
struct DurabilityOptions {
  /// When non-empty, every acknowledged report is appended to a
  /// per-shard write-ahead journal under this directory *before* its
  /// epoch-published view swap makes it visible, and LoadFromDirectory
  /// replays journal segments newer than the loaded snapshot generation.
  /// Empty (the default) disables the journal entirely.
  ///
  /// Point this at a fresh directory (conventionally <store_dir>/wal)
  /// for a fresh store, and at the same directory when recovering via
  /// LoadFromDirectory; constructing a *fresh* store over a journal that
  /// belonged to different store contents is undefined.
  std::string wal_dir;

  /// When appended records reach the device (docs/ROBUSTNESS.md):
  /// every_record survives power loss, interval bounds the power-loss
  /// window, none survives process crashes only.
  WalSyncPolicy sync_policy = WalSyncPolicy::kEveryRecord;

  /// kInterval only: minimum spacing between fdatasync calls.
  std::chrono::microseconds sync_interval{50000};

  /// kInterval only: injectable time source for the spacing check
  /// (null = steady clock), so tests drive the policy deterministically.
  std::function<std::chrono::steady_clock::time_point()> clock;

  /// Per-shard segment rollover size.
  size_t max_segment_bytes = 4 * 1024 * 1024;

  /// Retention cap for <store_dir>/quarantine/: once more than this many
  /// files accumulate, the oldest are evicted. 0 = unbounded (the
  /// pre-cap behaviour).
  size_t max_quarantine_files = 64;
};

/// Incremental pattern maintenance + drift-triggered model rebuilds
/// (docs/ARCHITECTURE.md has the counts → candidates → rebuild →
/// freeze → publish walkthrough).
struct RebuildOptions {
  /// Master switch. Off (default): an object's first model, trained
  /// once `min_training_periods` periods exist, serves for the store's
  /// lifetime. On, every object carries an IncrementalMiner fed on the
  /// ingest path, and the model is *rebuilt* from the miner's window
  /// whenever its drift score crosses `drift_threshold`.
  bool incremental = false;

  /// Where rebuilds run. true (default): a background worker
  /// (RebuildScheduler) rebuilds off the reporting hot path and the
  /// last-good model keeps serving meanwhile. false: the rebuild runs
  /// inline on the reporting thread — deterministic, what the
  /// differential and crash/replay tests use. WAL replay and
  /// LoadFromDirectory always rebuild inline regardless, so recovery
  /// is deterministic.
  bool background = true;

  /// Per-object miner configuration (window length, candidate bound,
  /// drift scoring). region_match_slack is overridden with the
  /// predictor's value so the miner maps points exactly as training
  /// does.
  IncrementalMinerOptions miner;

  /// Rebuild when an object's drift score reaches this. The score is a
  /// decayed sum of support-crossing and unmatched-point events, so
  /// "3.0" roughly means three recent pattern-set changes.
  double drift_threshold = 3.0;

  /// Bound on the background queue; a full queue drops the request
  /// (rebuild.dropped) and drift re-requests it on a later report.
  size_t max_pending = 64;

  /// Minimum gap between background rebuild starts (0 = unthrottled).
  /// When the whole fleet drifts at once this turns the rebuild storm
  /// into a steady trickle; skipped objects stay queued or are
  /// re-requested by their drift score. FlushRebuilds overrides it.
  std::chrono::milliseconds min_rebuild_interval{0};
};

/// Store configuration.
struct ObjectStoreOptions {
  /// Training / query configuration shared by every object's predictor.
  HybridPredictorOptions predictor;

  /// Train an object's first model once this many complete periods of
  /// history exist. Later models come only from drift rebuilds
  /// (RebuildOptions::incremental).
  int min_training_periods = 5;

  /// Recent movements handed to queries (and the motion fallback).
  int recent_window = 10;

  /// Number of hash partitions of the fleet; each shard has its own
  /// writer lock and published table, so independent shards ingest fully
  /// concurrently (reads never contend regardless). Must be >= 1.
  int num_shards = 8;

  /// Worker threads for fleet-query fan-out (range / kNN / batch).
  /// 0 = ThreadPool::DefaultThreadCount(). With 1, fan-out runs inline
  /// on the calling thread (no pool hop).
  int query_threads = 0;

  /// ---- Overload control (all defaults = off; see docs/ROBUSTNESS.md) ----

  /// Admission control consulted at every entry point (ingest and
  /// queries). The defaults admit everything; configure a rate and/or
  /// in-flight cap to make the store reject excess work with
  /// kUnavailable plus a retry-after hint (rung 2 of the ladder).
  AdmissionOptions admission;

  /// Bound on the fan-out pool's queued-but-unstarted tasks. When the
  /// queue is full, fan-out work runs inline on the calling thread
  /// (backpressure) instead of queueing unboundedly. 0 = unbounded.
  size_t max_pool_queue = 0;

  /// Rung 1 of the load-shedding ladder: once the fan-out pool's queue
  /// depth reaches this, queries skip the pattern side and answer with
  /// the RMF motion function (Prediction::degraded = kOverloaded).
  /// 0 = never degrade on queue depth.
  size_t degrade_queue_depth = 0;

  /// Rung 1, deadline-headroom trigger: a query whose deadline has less
  /// than this much time remaining is answered RMF-only immediately —
  /// the pattern side would blow the budget anyway. 0 = off.
  std::chrono::microseconds degrade_min_headroom{0};

  /// Per-shard circuit breakers over fan-out outcomes: a shard whose
  /// queries keep failing is tripped out of range/kNN fan-outs (the
  /// query returns partial=true) until a half-open probe succeeds.
  /// The defaults never trip on a healthy shard.
  CircuitBreakerOptions breaker;

  /// Observes every per-shard breaker transition (called under the
  /// breaker's lock — keep it cheap). For diagnostics; `hpm_tool
  /// faultcheck` prints these.
  std::function<void(int shard, CircuitBreaker::State from,
                     CircuitBreaker::State to)>
      breaker_listener;

  /// Durable ingest: write-ahead journal + quarantine retention. The
  /// default (empty wal_dir) keeps ingest memory-only between snapshots.
  DurabilityOptions durability;

  /// Incremental pattern maintenance + background rebuilds. Off by
  /// default. NOTE: with `rebuild.incremental && rebuild.background`,
  /// the store must not be moved once reports have been ingested — the
  /// lazily created background worker holds the store's address.
  RebuildOptions rebuild;

  /// When set, every entry-point call records a per-query Trace (pipeline
  /// stage spans, per-object child work, counters) and hands it here from
  /// the pipeline's Account stage, on the calling thread. Unset (the
  /// default) means tracing is fully disabled and costs one branch per
  /// span site. Keep the sink cheap; it runs inside the query's latency.
  TraceSink trace_sink;
};

/// Per-object ingestion + prediction service. Thread-safe: shards, lock
/// striping and model-snapshot swaps are internal (see header comment).
class MovingObjectStore {
 public:
  explicit MovingObjectStore(ObjectStoreOptions options);

  /// Movable so LoadFromDirectory can return by value; moving a store
  /// that other threads are using is undefined (publish after moving).
  MovingObjectStore(MovingObjectStore&&) noexcept = default;
  MovingObjectStore& operator=(MovingObjectStore&&) noexcept = default;

  /// Appends one location sample for `id` at the object's next
  /// timestamp (each object's clock starts at 0 and advances by 1 per
  /// report). Training and inline rebuilds run on the reporting
  /// thread when their triggers fire — but outside the shard
  /// lock, against a history/model snapshot, so concurrent readers of
  /// the same shard are never blocked behind mining; their errors
  /// propagate. Concurrent reports for the *same* object are safe but
  /// their relative order (and thus the object's trajectory) is up to
  /// the scheduler; give each object one reporting thread for
  /// deterministic histories.
  ///
  /// Hardened against malformed input: NaN/Inf coordinates are rejected
  /// with kInvalidArgument (and counted — RejectedReports(id)) instead
  /// of poisoning later training. Under overload, admission control may
  /// reject with kUnavailable + retry-after, and (re)training is
  /// deferred until pressure clears (queries outrank model refreshes).
  Status ReportLocation(ObjectId id, const Point& location);

  /// ReportLocation with an explicit timestamp: `t` must be exactly the
  /// object's next tick (== HistoryLength(id)). A smaller `t` is a
  /// non-monotone (out-of-order / duplicate) report and a larger one a
  /// gap; both are rejected with kInvalidArgument and counted per
  /// object rather than silently corrupting the trajectory's unit-step
  /// time base.
  Status ReportLocationAt(ObjectId id, Timestamp t, const Point& location);

  /// Bulk ingestion convenience.
  Status ReportTrajectory(ObjectId id, const Trajectory& trajectory);

  /// Malformed reports rejected so far for `id` (NaN/Inf coordinates,
  /// non-monotone timestamps). 0 for unknown objects.
  uint64_t RejectedReports(ObjectId id) const;

  /// Ids of all tracked objects, ascending. Shard-snapshot read: ids
  /// reported while the call runs may or may not be included.
  std::vector<ObjectId> ObjectIds() const;

  size_t NumObjects() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Samples reported so far for `id` (0 when unknown).
  size_t HistoryLength(ObjectId id) const;

  /// A shared snapshot of the object's trained predictor, or NotFound /
  /// FailedPrecondition when the object is unknown / not yet trained.
  /// The snapshot stays valid (and immutable) after later retrains swap
  /// the live model.
  StatusOr<std::shared_ptr<const HybridPredictor>> GetPredictor(
      ObjectId id) const;

  /// Farthest query time the store answers, in ticks past the object's
  /// last report (past the newest report of any object, for range and
  /// kNN queries). Farther `tq` are rejected with kInvalidArgument: the
  /// motion function steps once per tick up to `tq`, so the bound caps
  /// one answer's work. Far above every horizon the paper's experiments
  /// use (a few periods).
  static constexpr Timestamp kMaxPredictionHorizon = Timestamp{1} << 22;

  /// Predicts object `id`'s location at `tq` (absolute time on the
  /// object's clock, after its last report). Uses the object's trained
  /// predictor when available and a pure motion-function answer before
  /// the first training threshold. When `deadline` expires mid-query the
  /// answer degrades to the RMF motion function (Prediction::degraded
  /// records why) instead of failing.
  StatusOr<std::vector<Prediction>> PredictLocation(
      ObjectId id, Timestamp tq, int k = 1,
      Deadline deadline = Deadline::Infinite()) const;

  /// Amortised multi-object point prediction: one result per input id,
  /// in input order. Every id resolves to its published view under one
  /// epoch pin, and the per-object prediction work fans out on the
  /// thread pool in contiguous chunks of the input, each chunk predicting
  /// its items in input order. Every slot holds the same StatusOr that
  /// PredictLocation(ids[i], tq, k) would have returned at that time.
  std::vector<StatusOr<std::vector<Prediction>>> PredictLocationBatch(
      const std::vector<ObjectId>& ids, Timestamp tq, int k = 1,
      Deadline deadline = Deadline::Infinite()) const;

  /// Predictive range query: every object whose predicted location(s)
  /// at `tq` (its own clock) fall inside `range`. At most one hit per
  /// object (its best-scored matching prediction); hits sorted by score
  /// descending. `k_per_object` controls how many candidate locations
  /// are considered per object. Objects whose last report precedes `tq`
  /// by less than one step are skipped. Fans out across shards on the
  /// thread pool; each shard's objects are evaluated against their
  /// epoch-protected published views (no lock taken).
  /// A `deadline` bounds the pattern-side work per object: once it
  /// expires, remaining objects are evaluated with their (cheap) RMF
  /// answers, so the result set still covers every eligible object.
  /// A shard whose circuit breaker is open (or whose share fails) is
  /// skipped and the result is flagged partial instead of the whole
  /// query failing; under overload the per-object answers degrade to
  /// RMF (DegradedReason::kOverloaded) or the call is rejected with
  /// kUnavailable + retry-after.
  StatusOr<FleetQueryResult> PredictiveRangeQuery(
      const BoundingBox& range, Timestamp tq, int k_per_object = 3,
      Deadline deadline = Deadline::Infinite()) const;

  /// Predictive n-nearest-neighbours: the `n` objects whose top-1
  /// predicted location at `tq` lies closest to `target`, nearest
  /// first. Objects that cannot be queried at `tq` are skipped. Same
  /// fan-out (and the same partial/overload contract) as
  /// PredictiveRangeQuery.
  StatusOr<FleetQueryResult> PredictiveNearestNeighbors(
      const Point& target, Timestamp tq, int n,
      Deadline deadline = Deadline::Infinite()) const;

  /// ---- Observability --------------------------------------------------
  /// True when the store was configured with a write-ahead journal
  /// (DurabilityOptions::wal_dir non-empty).
  bool wal_enabled() const { return !options_.durability.wal_dir.empty(); }

  /// True while the journal is healthy: enabled and no disk fault has
  /// dropped the store to non-durable serving. Mirrors the
  /// store.wal_disabled metric (the health flag `hpm_tool stats` reports).
  bool wal_durable() const {
    return wal_enabled() && !wal_disabled_->load(std::memory_order_relaxed);
  }

  /// Snapshot of the serving metrics (per-op admitted/shed counters,
  /// pipeline stage latency histograms, TPT traversal effort, …). Names
  /// are documented in docs/OBSERVABILITY.md.
  MetricsSnapshot metrics_snapshot() const {
    return metrics_registry_->TakeSnapshot();
  }

  /// State of shard `shard`'s circuit breaker.
  CircuitBreaker::State BreakerState(int shard) const;

  /// Queued-but-unstarted fan-out tasks (the rung-1 pressure signal).
  size_t PoolQueueDepth() const { return pool_->queue_depth(); }

  /// Entry-point calls currently admitted and running.
  int InFlight() const { return admission_->in_flight(); }

  /// ---- Continuous monitoring -----------------------------------------
  /// Registers a standing range query: after every location report, the
  /// reporting object's predicted membership in `range` at
  /// (its now + horizon) is re-evaluated, and a ContinuousEvent is
  /// queued whenever the membership flips. Returns the query id.
  int RegisterContinuousQuery(const BoundingBox& range, Timestamp horizon,
                              int k_per_object = 3);

  /// Removes a standing query; pending events for it stay in the queue.
  void UnregisterContinuousQuery(int query_id);

  /// One membership flip detected by a standing query.
  struct ContinuousEvent {
    int query_id = 0;
    ObjectId object = 0;
    /// True when the object is now predicted inside the range; false
    /// when it just left.
    bool entered = false;
    /// The triggering prediction (last matching one when entering; the
    /// best available when leaving).
    Prediction prediction;
    /// The object-clock time the evaluation targeted (now + horizon).
    Timestamp evaluated_at = 0;
  };

  /// Returns and clears the queued events, oldest first. Safe under
  /// concurrent reporters (the event queue has its own mutex).
  std::vector<ContinuousEvent> DrainContinuousEvents();

  /// ---- Persistence ----------------------------------------------------
  /// Writes the whole store (per-object history CSV + trained model +
  /// manifest) under `directory`, creating it if needed. Each object is
  /// snapshotted under its shard's writer lock; objects reported while
  /// the save runs may be missed.
  Status SaveToDirectory(const std::string& directory) const;

  /// Restores a store written by SaveToDirectory. `options` must match
  /// the one the store was built with (per-object models carry their
  /// own training options; the store options govern thresholds).
  static StatusOr<MovingObjectStore> LoadFromDirectory(
      const std::string& directory, ObjectStoreOptions options);

  /// The snapshot generation this store's state sits on: set by
  /// LoadFromDirectory to the generation it loaded and advanced by every
  /// successful SaveToDirectory. 0 for a store that has never touched
  /// disk. Replication stamps replies with it.
  uint64_t generation() const {
    return generation_->load(std::memory_order_relaxed);
  }

  /// ---- Replication (server/replication.h drives this) -----------------
  /// Applies one record shipped from a primary's journal, with the exact
  /// semantics of crash replay: a report at the object's next tick
  /// appends (journaling locally when a journal is attached, retraining
  /// exactly as live ingest would — a replica applying the same records
  /// in the same order converges to bit-identical models); a record the
  /// local state already covers returns false (idempotent re-delivery);
  /// a record *past* the next tick is kOutOfRange — the follower missed
  /// records and must resync rather than fabricate history. Rejected
  /// tallies and baselines apply unconditionally. In incremental mode
  /// the record feeds the object's miner exactly as live ingest does,
  /// so a replica (or a crash-replayed store) converges to the same
  /// pattern state as the primary.
  StatusOr<bool> ApplyReplicated(const WalRecord& record);

  /// ---- Incremental maintenance (RebuildOptions::incremental) ----------
  /// Quiesce point: drains the background rebuild queue, then runs any
  /// still-pending drift-triggered rebuilds inline. After it returns,
  /// every object's model reflects its miner's current window — the
  /// deterministic state the differential tests compare. No-op when
  /// incremental mode is off.
  Status FlushRebuilds();

  /// Introspection snapshot of one object's miner, for tests and
  /// tooling.
  struct MinerSnapshot {
    double drift = 0.0;
    /// Samples covered by completed periods (the rebuild window's end).
    size_t window_end = 0;
    /// Samples the served model was built from.
    size_t consumed_samples = 0;
    /// The miner's window as a trajectory (what a rebuild would train
    /// on).
    Trajectory window;
    /// The maintained pattern set (empty until regions are adopted).
    std::vector<TrajectoryPattern> patterns;
    MinerStats stats;
  };

  /// kNotFound for unknown objects, kFailedPrecondition when the store
  /// is not in incremental mode.
  StatusOr<MinerSnapshot> MinerState(ObjectId id) const;

 private:
  /// Everything a prediction needs, snapshotted by the writer at publish
  /// time. Immutable once published; readers use it in place (no copy,
  /// no refcount touch) while their epoch pin is held, and the epoch
  /// manager frees it after the last such reader unpins.
  struct ObjectView {
    ObjectId id = 0;
    size_t history_size = 0;
    Timestamp now = 0;
    std::vector<TimedPoint> recent;
    /// Shared handle pins the model generation for at least the view's
    /// lifetime; readers go through the raw pointer.
    std::shared_ptr<const HybridPredictor> predictor;
    /// The motion function fitted on `recent`, filled by the first
    /// reader that needs the fallback and freed with the view. Fitted
    /// with predictor->options().rmf, or the store's options when
    /// `predictor` is null — one source of options per view.
    RmfMemo motion;
  };

  /// One tracked object. Stable-address (owned by unique_ptr in the
  /// shard's record map, never deleted while the store lives). The
  /// writer fields are guarded by the owning shard's write_mutex; `view`
  /// is the epoch-protected published snapshot, rebuilt and swapped on
  /// every append and every model swap.
  struct ObjectRecord {
    explicit ObjectRecord(ObjectId object_id) : id(object_id) {}
    ~ObjectRecord() { delete view.load(std::memory_order_relaxed); }
    ObjectRecord(const ObjectRecord&) = delete;
    ObjectRecord& operator=(const ObjectRecord&) = delete;

    const ObjectId id;

    // --- writer state (shard write_mutex) --------------------------------
    Trajectory history;
    /// Immutable trained model; replaced wholesale (never mutated) when
    /// a build publishes.
    std::shared_ptr<const HybridPredictor> predictor;
    /// Samples the served model was built from (the first build's whole
    /// periods, or the window end of the last rebuild).
    size_t consumed_samples = 0;
    /// Incremental mode only: the streaming pattern-maintenance state
    /// fed on every append (null otherwise).
    std::unique_ptr<IncrementalMiner> miner;
    /// True while a reporting thread is mining this object outside the
    /// writer lock; prevents duplicate concurrent (re)trains.
    bool training_in_flight = false;

    // --- read side -------------------------------------------------------
    /// Release-published, acquire-loaded, non-null from the moment the
    /// record becomes reachable through a shard table.
    std::atomic<const ObjectView*> view{nullptr};
  };

  using RecordMap = std::map<ObjectId, std::unique_ptr<ObjectRecord>>;

  /// A shard's immutable directory: records sorted by id. Replaced
  /// wholesale (publish + retire) when an object is added.
  struct ShardTable {
    std::vector<const ObjectRecord*> records;
    const ObjectRecord* Find(ObjectId id) const;
  };

  struct Shard {
    Shard() : table(new ShardTable) {}
    ~Shard() { delete table.load(std::memory_order_relaxed); }

    /// Serialises writers (ingest, training swaps, persistence reads of
    /// writer state). Never taken on a query read path.
    mutable std::mutex write_mutex;
    /// Record ownership (write_mutex). Records are never erased.
    RecordMap records;
    /// Malformed reports rejected per object. Kept beside `records` (not
    /// inside ObjectRecord) so a rejected report never creates a phantom
    /// object in ObjectIds()/NumObjects().
    std::map<ObjectId, uint64_t> rejected_reports;
    /// The shard's write-ahead journal appender (write_mutex; null when
    /// durability is off, or until LoadFromDirectory finishes replaying).
    std::unique_ptr<WalWriter> wal;
    /// Epoch-protected, acquire-loaded by readers.
    std::atomic<const ShardTable*> table;
  };

  struct ContinuousQuery {
    int id = 0;
    BoundingBox range;
    Timestamp horizon = 0;
    int k_per_object = 3;
    /// Last known predicted-membership per object.
    std::map<ObjectId, bool> inside;
  };

  /// Standing-query registry and pending-event queue. Lock ordering:
  /// `mutex` before `events_mutex`; neither is ever held while taking a
  /// shard lock.
  struct ContinuousState {
    std::mutex mutex;
    int next_query_id = 1;
    std::map<int, ContinuousQuery> queries;
    std::mutex events_mutex;
    std::vector<ContinuousEvent> pending_events;
  };

  static size_t ShardIndex(ObjectId id, size_t num_shards);
  Shard& ShardFor(ObjectId id) const {
    return *shards_[ShardIndex(id, shards_.size())];
  }

  /// Builds a fresh view of `record`'s writer state (caller holds the
  /// shard's write_mutex, or owns the record exclusively while loading).
  const ObjectView* BuildView(const ObjectRecord& record) const;

  /// Swaps `view` in as `record`'s published snapshot and retires the
  /// previous one (write_mutex held).
  void PublishView(ObjectRecord& record, const ObjectView* view);

  /// Rebuilds the shard's table from its record map, publishes it and
  /// retires the previous table (write_mutex held). `record`'s view must
  /// already be published — readers must never see a viewless record.
  void PublishTable(Shard& shard);

  /// kInvalidArgument when `tq` lies more than kMaxPredictionHorizon
  /// ticks past `now`.
  static Status CheckHorizon(Timestamp tq, Timestamp now);

  /// The published view for `id`, or null when the object is unknown.
  /// Caller must hold an epoch pin taken before the call.
  const ObjectView* FindView(const Shard& shard, ObjectId id) const;

  /// Predicts against a published view; the caller holds an epoch pin,
  /// no locks. The one per-object predict path of every read entry
  /// point. The execution context (may be null for context-free callers
  /// — continuous queries) supplies the deadline, the rung-1 shed
  /// verdict (a trained object's answer is then the RMF motion function
  /// stamped DegradedReason::kOverloaded), scratch lane `lane`, and
  /// per-query accounting.
  StatusOr<std::vector<Prediction>> PredictView(const ObjectView& view,
                                                Timestamp tq, int k,
                                                QueryContext* ctx,
                                                int lane) const;

  /// Shared ReportLocation/ReportLocationAt back half, one pipeline
  /// instantiation: validates the sample (including `*expected_t`'s
  /// range when non-null), appends, trains, feeds continuous queries.
  Status Ingest(ObjectId id, const Point& location,
                const Timestamp* expected_t);

  /// Appends `location` as `id`'s next sample (write_mutex held; `it` is
  /// the object's record, or end() for a new object): journals the
  /// report, creates the record (and its miner) on first sight, appends,
  /// feeds the miner, then publishes the view and, for a new record, the
  /// shard table. The one append path of live ingest, replication and
  /// journal replay.
  void AppendReport(Shard& shard, ObjectId id, RecordMap::iterator it,
                    const Point& location);

  /// Records a malformed report for `id` (creates no trajectory); the
  /// aggregate count flows through `ctx` to the Account stage.
  void RecordRejectedReport(ObjectId id, QueryContext& ctx);

  /// ---- Durable ingest (io/wal; implementation split with store_io.cc) --
  /// Opens per-shard journal writers under durability.wal_dir, continuing
  /// each shard's segment sequence past whatever already exists on disk.
  /// `base_gen` is the snapshot generation the new segments sit on top of
  /// (0 for a fresh store). Constructor/LoadFromDirectory degrade to
  /// non-durable serving via DisableWal when this fails.
  Status InitWal(uint64_t base_gen);

  /// Appends `record` to `shard`'s journal (write_mutex held). A no-op
  /// when the journal is off, not yet attached, or disabled; any append
  /// or sync failure degrades the store instead of propagating.
  void WalAppend(Shard& shard, const WalRecord& record);

  /// Flips the store to non-durable serving (once): sets the health flag
  /// and bumps store.wal_disabled. Reports keep being acknowledged.
  void DisableWal(const Status& cause) const;

  /// Applies one replayed journal record to the freshly loaded store:
  /// records at the object's next tick append (and may retrain, exactly
  /// as live ingest would); records already covered by the snapshot, or
  /// gapped by a stale segment, are skipped. Returns the number of
  /// records applied (0 or 1).
  uint64_t ApplyWalRecord(const WalRecord& record);

  /// Replays every journal segment with base_gen >= `loaded_gen` in
  /// (shard, seq) order: truncates torn tails, quarantines mid-log
  /// corruption (halting that shard's stream), and feeds surviving
  /// records through ApplyWalRecord. Called by LoadFromDirectory before
  /// writers attach, so replay never re-journals itself.
  void ReplayWal(uint64_t loaded_gen);

  /// Builds `id`'s model if a trigger fires after an append: the first
  /// build once `min_training_periods` periods exist, then (incremental
  /// mode only) a rebuild whenever the miner's drift score crosses
  /// `drift_threshold`. Under rung-1 pressure the build is deferred —
  /// query traffic outranks model refreshes; the trigger re-fires on a
  /// later report. A rebuild runs inline when `allow_background` is
  /// false (WAL replay, sync mode) and is queued on the background
  /// scheduler otherwise.
  Status MaybeTrain(Shard& shard, ObjectId id, QueryPipeline& pipeline,
                    bool allow_background);

  /// The two ways the store produces a model.
  enum class ModelBuild {
    kInitial,  ///< First model, trained on the whole history.
    kRebuild,  ///< Drift rebuild, trained on the miner's window.
  };

  /// The one capture → Train → publish routine: captures the training
  /// input under the shard lock (re-examining the record, so it is safe
  /// to call for ids with nothing to do), trains and freezes off-lock
  /// while readers keep the published view, then re-locks and publishes
  /// via the epoch snapshot swap. A first build retries transient
  /// failures; a rebuild passes the fault sites "rebuild/mine",
  /// "rebuild/freeze" and "rebuild/publish", and on any failure leaves
  /// the last-good model serving and counts rebuild.failed. `trace` (may
  /// be null) receives a "train" span.
  Status BuildModel(Shard& shard, ObjectId id, ModelBuild kind,
                    Trace* trace);

  /// ---- Incremental maintenance internals ------------------------------
  /// A fresh miner configured from options_ (period, mining params and
  /// region-match slack copied from the predictor options, metric hooks
  /// wired into metrics_).
  std::unique_ptr<IncrementalMiner> NewMiner() const;

  /// The background worker, created lazily on the first background
  /// enqueue (never during load/replay, so LoadFromDirectory's returned
  /// store is still movable until it starts ingesting).
  RebuildScheduler* EnsureScheduler();

  /// Receives one object's top-k answer during a shard walk.
  using ShardVisitor =
      std::function<void(ObjectId id, const std::vector<Prediction>&)>;

  /// One shard's share of a fleet query (range, kNN), running as a
  /// fan-out lane of `ctx`: pins the epoch in the lane's scratch guard,
  /// walks the shard's published table and predicts the top `k` against
  /// each view that can answer at `tq` (two or more reports, tq after
  /// the last) in place — no lock, no copies — handing each answer to
  /// `visit`. `shard_index` names the per-shard fault site and the
  /// scratch lane. A failed prediction ends the walk with its status.
  Status WalkShard(int shard_index, Timestamp tq, int k, QueryContext& ctx,
                   const ShardVisitor& visit) const;

  /// The borrowed-subsystem environment every pipeline instantiation
  /// receives.
  QueryPipeline::Env PipelineEnv() const;

  /// Re-evaluates every standing query for the object that just
  /// reported, against the given view (caller holds an epoch pin).
  void EvaluateContinuousQueries(const ObjectView& view);

  bool HasContinuousQueries() const;

  ObjectStoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ContinuousState> continuous_;
  std::unique_ptr<AdmissionController> admission_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::unique_ptr<MetricsRegistry> metrics_registry_;
  std::unique_ptr<StoreMetrics> metrics_;
  /// Set once by DisableWal when a disk fault drops the store to
  /// non-durable serving. Heap-allocated so the store stays movable.
  std::unique_ptr<std::atomic<bool>> wal_disabled_;
  /// Snapshot generation (see generation()); heap-allocated for
  /// movability, mutated by the const SaveToDirectory after commit.
  std::unique_ptr<std::atomic<uint64_t>> generation_;
  /// Newest `now` of any published view: the reference time that bounds
  /// range and kNN query times. Heap-allocated for movability.
  std::unique_ptr<std::atomic<Timestamp>> latest_now_;
  /// Destroyed before everything above it, so draining its limbo (which
  /// bumps the epoch.* counters) still has a live metrics registry.
  std::unique_ptr<EpochManager> epoch_;
  /// True while ReplayWal is feeding records back through the ingest
  /// path; forces rebuilds inline (deterministic recovery, and no
  /// background worker is created while the store may still be moved).
  std::unique_ptr<std::atomic<bool>> replaying_;
  /// Background rebuild worker, created lazily by EnsureScheduler.
  /// Declared after epoch_ so it is destroyed (worker joined) while the
  /// epoch manager, shards and metrics it uses are still alive.
  std::unique_ptr<std::mutex> scheduler_mu_;
  std::unique_ptr<std::atomic<RebuildScheduler*>> scheduler_ptr_;
  std::unique_ptr<RebuildScheduler> scheduler_;
};

}  // namespace hpm

#endif  // HPM_SERVER_OBJECT_STORE_H_
