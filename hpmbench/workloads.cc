// The workloads, their correctness gates and the traced layer probes. See
// bench.h for the run structure and BENCHMARK.json for why each workload
// exists.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/hybrid_predictor.h"
#include "datagen/report_stream.h"
#include "io/wal.h"
#include "mining/incremental_miner.h"
#include "motion/recursive_motion.h"
#include "net/client.h"
#include "net/server.h"
#include "server/object_store.h"

namespace hpmbench {
namespace {

using hpm::HpmClient;
using hpm::HpmServer;
using hpm::HybridPredictor;
using hpm::MetricsSnapshot;
using hpm::MovingObjectStore;
using hpm::ObjectId;
using hpm::ObjectStoreOptions;
using hpm::Point;
using hpm::Prediction;
using hpm::Random;
using hpm::Status;
using hpm::StatusOr;
using hpm::Timestamp;
using hpm::Trajectory;

// ---- Dataset -------------------------------------------------------------

constexpr Timestamp kPeriod = 20;
/// Five and a half periods of history per object: the store trains an
/// object's first model after five (its default min_training_periods), and
/// "now" then sits mid-period, where patterns (which never span a period
/// boundary) can answer the near horizons.
constexpr Timestamp kSetupTicks = 5 * kPeriod + kPeriod / 2;
/// ReportStream's default data extent; every location lies in
/// [0, kExtent]^2.
constexpr double kExtent = 1000.0;
constexpr int kSetupRepeats = 3;
/// Set-up and every workload keep at most two threads busy on the
/// reference host's four: with all four busy, a spell in which the host
/// takes capacity away slowed whole runs by up to 75%.
constexpr int kSetupThreads = 2;
/// The distant-time threshold d must lie inside the period; half a period
/// splits the horizons below evenly between the two query processors.
constexpr Timestamp kDistantThreshold = kPeriod / 2;
/// Near horizons run Forward Query Processing, far ones Backward.
constexpr Timestamp kNearMax = kDistantThreshold - 1;
constexpr Timestamp kFarMin = kDistantThreshold;
constexpr Timestamp kFarMax = 30;
/// pred_err horizons. Whether a period follows the object's route is drawn
/// per object and period, so horizons spread over six future periods keep
/// the mean from hinging on one period's draws.
constexpr Timestamp kEvalHorizons[] = {3, 8, 15, 30, 50, 70, 90, 110};
constexpr Timestamp kEvalMax = 110;
/// Traced runs trace one request in this many.
constexpr int kTraceEvery = 16;
/// The latency limit of read_mix's slo_frac.
constexpr double kInProcessLimitUs = 1000.0;

Timestamp NearHorizon(Random& rng) { return rng.UniformInt(1, kNearMax); }
Timestamp FarHorizon(Random& rng) { return rng.UniformInt(kFarMin, kFarMax); }

/// Point predicts cycle near, near, far: the median then sits inside the
/// Forward-processing mode and p99 inside the Backward one, instead of
/// either landing on the gap between the two modes.
Timestamp PredictHorizon(uint64_t i, Random& rng) {
  return i % 3 == 2 ? FarHorizon(rng) : NearHorizon(rng);
}

Point UniformPoint(Random& rng) {
  return {rng.UniformDouble(0.0, kExtent), rng.UniformDouble(0.0, kExtent)};
}

hpm::BoundingBox RandomBox(Random& rng) {
  const Point c = UniformPoint(rng);
  return hpm::BoundingBox(Point(c.x - 100.0, c.y - 100.0),
                          Point(c.x + 100.0, c.y + 100.0));
}

/// Only dataset-dependent options are set; model maintenance stays in the
/// store's default mode.
ObjectStoreOptions StoreOptions(int query_threads, const std::string& wal_dir) {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = kDistantThreshold;
  // Recent movements match a frequent region within two noise sigmas of
  // its MBR (ReportStream's default location noise is sigma 4).
  options.predictor.region_match_slack = 8.0;
  // The data extent: motion-function extrapolation is clamped into it.
  options.predictor.rmf.clamp_box =
      hpm::BoundingBox(Point(0.0, 0.0), Point(kExtent, kExtent));
  options.num_shards = 8;
  options.query_threads = query_threads;
  if (!wal_dir.empty()) {
    options.durability.wal_dir = wal_dir;
    options.durability.sync_policy = hpm::WalSyncPolicy::kInterval;
  }
  return options;
}

/// Every object's whole path, generated ahead of what the store is fed:
/// the points past an object's last report are the ground truth its
/// predictions are scored against.
struct Fleet {
  std::vector<Trajectory> paths;  // paths[id - 1]
  const Trajectory& of(ObjectId id) const {
    return paths[static_cast<size_t>(id - 1)];
  }
  int size() const { return static_cast<int>(paths.size()); }
};

Fleet MakeFleet(int objects, int drift_every_periods, uint64_t seed,
                Timestamp ticks) {
  hpm::ReportStreamConfig config;
  config.num_objects = objects;
  config.period = kPeriod;
  config.drift_every_periods = drift_every_periods;
  config.extent = kExtent;
  config.seed = seed;
  hpm::ReportStream stream(config);
  std::vector<std::vector<Point>> points(static_cast<size_t>(objects));
  for (int64_t i = 0; i < static_cast<int64_t>(objects) * ticks; ++i) {
    const hpm::StreamedReport report = stream.Next();
    std::vector<Point>& path = points[static_cast<size_t>(report.object_id - 1)];
    HPM_CHECK(report.time == static_cast<Timestamp>(path.size()));
    path.push_back(report.location);
  }
  Fleet fleet;
  for (std::vector<Point>& path : points) {
    fleet.paths.emplace_back(std::move(path));
  }
  return fleet;
}

long RssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

/// First few failures, collected from any thread.
class Errors {
 public:
  void Add(const std::string& error) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (list_.size() < 8) list_.push_back(error);
  }
  std::vector<std::string> list() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = list_;
    if (count_ > list_.size()) {
      out.push_back(std::to_string(count_ - list_.size()) + " more");
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> list_;
  size_t count_ = 0;
};

bool Sane(const Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && p.x >= 0.0 &&
         p.x <= kExtent && p.y >= 0.0 && p.y <= kExtent;
}

/// Every prediction finite and inside the data extent.
bool SanePredictions(const std::vector<Prediction>& predictions) {
  if (predictions.empty()) return false;
  for (const Prediction& p : predictions) {
    if (!Sane(p.location)) return false;
  }
  return true;
}

bool SaneHits(const hpm::FleetQueryResult& result) {
  if (result.partial) return false;
  for (const hpm::RangeHit& hit : result.hits) {
    if (!Sane(hit.prediction.location)) return false;
  }
  return true;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SamePredictions(const std::vector<Prediction>& a,
                     const std::vector<Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i].location.x, b[i].location.x) ||
        !SameBits(a[i].location.y, b[i].location.y) ||
        !SameBits(a[i].score, b[i].score) ||
        !SameBits(a[i].confidence, b[i].confidence) ||
        a[i].source != b[i].source || a[i].pattern_id != b[i].pattern_id ||
        a[i].consequence_region != b[i].consequence_region ||
        a[i].degraded != b[i].degraded) {
      return false;
    }
  }
  return true;
}

/// The query the store builds for `id` at `tq` from its published view,
/// rebuilt from the object's known path.
hpm::PredictiveQuery DirectQuery(const Trajectory& path, Timestamp now,
                                 Timestamp tq, int k) {
  hpm::PredictiveQuery query;
  query.recent_movements =
      path.RecentMovements(now, ObjectStoreOptions().recent_window);
  query.current_time = now;
  query.query_time = tq;
  query.k = k;
  return query;
}

/// Reports every fleet object's first `ticks` samples, objects split over
/// kSetupThreads writers (one writer per object keeps histories exact).
Status FeedFleet(MovingObjectStore* store, const Fleet& fleet, Timestamp ticks) {
  Errors errors;
  std::vector<std::thread> writers;
  for (int w = 0; w < kSetupThreads; ++w) {
    writers.emplace_back([&, w] {
      for (ObjectId id = 1 + w; id <= fleet.size(); id += kSetupThreads) {
        for (Timestamp t = 0; t < ticks; ++t) {
          const Status status = store->ReportLocation(id, fleet.of(id).At(t));
          if (!status.ok()) {
            errors.Add("setup report: " + status.ToString());
            return;
          }
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  const std::vector<std::string> list = errors.list();
  return list.empty() ? Status::OK() : Status::Internal(list.front());
}

hpm::WalRecord ReportRecord(ObjectId id, Timestamp t, const Point& p) {
  hpm::WalRecord record;
  record.id = id;
  record.t = t;
  record.x = p.x;
  record.y = p.y;
  return record;
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// ---- Tracing ---------------------------------------------------------------

/// Traced-run state: the span log, and what the store's own trace sink
/// reports per call (stage spans and per-query counters).
class Tracer {
 public:
  struct OpTotals {
    uint64_t calls = 0;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, std::vector<double>> stage_us;
  };

  /// While alive, store pipeline spans recorded on this thread are grafted
  /// under span `parent` of `trace`.
  class Graft {
   public:
    Graft(RequestTrace* trace, int parent) {
      current_ = {trace, parent};
    }
    ~Graft() { current_ = {}; }
    Graft(const Graft&) = delete;
    Graft& operator=(const Graft&) = delete;
  };

  SpanLog log;

  hpm::TraceSink Sink() {
    return [this](const char* op, const hpm::Trace& trace) {
      OnTrace(op, trace);
    };
  }

  void ResetTotals() {
    std::lock_guard<std::mutex> lock(mu_);
    totals_.clear();
  }

  std::map<std::string, OpTotals> totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }

 private:
  struct Target {
    RequestTrace* trace = nullptr;
    int parent = 0;
  };

  void OnTrace(const char* op, const hpm::Trace& trace) {
    const std::vector<hpm::TraceSpan> spans = trace.spans();
    {
      std::lock_guard<std::mutex> lock(mu_);
      OpTotals& totals = totals_[op];
      ++totals.calls;
      for (const auto& [name, value] : trace.counters()) {
        totals.counters[name] += value;
      }
      for (const hpm::TraceSpan& span : spans) {
        if (span.depth == 1) {
          totals.stage_us[span.name].push_back(
              static_cast<double>(span.duration_micros));
        }
      }
    }
    if (current_.trace == nullptr) return;
    // The pipeline's trace clock starts as the call enters the store;
    // align it with the start of the enclosing end-to-end span.
    RequestTrace& target = *current_.trace;
    const int64_t base = target.start_ns(current_.parent);
    std::vector<int> index(spans.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i) {
      const hpm::TraceSpan& span = spans[i];
      if (span.depth > 1 || !span.finished) continue;
      const int parent = span.parent < 0 ? current_.parent
                                         : index[static_cast<size_t>(span.parent)];
      if (parent < 0) continue;
      const int64_t start = base + static_cast<int64_t>(span.start_micros) * 1000;
      index[i] = target.Add(
          (span.depth == 0 ? "server.pipeline." : "server.stage.") + span.name,
          parent, start,
          start + static_cast<int64_t>(span.duration_micros) * 1000);
    }
  }

  static thread_local Target current_;
  mutable std::mutex mu_;
  std::map<std::string, OpTotals> totals_;
};

thread_local Tracer::Target Tracer::current_;

/// Times `fn` as span `name` under `parent`.
template <typename Fn>
auto Timed(RequestTrace& trace, const std::string& name, Fn fn,
           int parent = 0) {
  const int span = trace.Begin(name, parent);
  auto result = fn();
  trace.End(span);
  return result;
}

struct TracedPredictResult {
  double e2e_us = 0;
  bool ok = false;
};

/// One traced point predict: the store call, then a direct
/// HybridPredictor::Predict and an RMF fit on the same query. The store's
/// answer must be bit-identical to the direct one (the store is quiet for
/// this object while the call runs). An untimed direct predict first warms
/// the model's cache lines, so store and direct calls differ only by the
/// server layer's own work.
TracedPredictResult TracedPredict(Tracer* tracer, const MovingObjectStore& store,
                                  const Trajectory& path, ObjectId id,
                                  Timestamp now, Timestamp tq, Errors* errors) {
  StatusOr<std::shared_ptr<const HybridPredictor>> predictor =
      store.GetPredictor(id);
  if (!predictor.ok()) {
    errors->Add("GetPredictor: " + predictor.status().ToString());
    return {};
  }
  const hpm::PredictiveQuery query = DirectQuery(path, now, tq, 1);
  (void)(*predictor)->Predict(query);

  RequestTrace trace(&tracer->log, "request.predict");
  const int e2e = trace.Begin("server.PredictLocation");
  StatusOr<std::vector<Prediction>> served = [&] {
    const Tracer::Graft graft(&trace, e2e);
    return store.PredictLocation(id, tq, 1);
  }();
  trace.End(e2e);
  TracedPredictResult result;
  result.e2e_us = static_cast<double>(trace.duration_ns(e2e)) / 1000.0;
  result.ok = served.ok() && SanePredictions(*served);

  const StatusOr<std::vector<Prediction>> direct =
      Timed(trace, tq - now >= kFarMin ? "core.Predict.bqp" : "core.Predict.fqp",
            [&] { return (*predictor)->Predict(query); });
  Timed(trace, "motion.RMF.FitPredict", [&] {
    hpm::RecursiveMotionFunction rmf((*predictor)->options().rmf);
    return rmf.Fit(query.recent_movements).ok() ? rmf.Predict(tq).ok() : false;
  });
  if (!served.ok() || !direct.ok() || !SamePredictions(*served, *direct)) {
    errors->Add("PredictLocation differs from HybridPredictor::Predict for " +
                std::to_string(id) + " at " + std::to_string(tq));
  }
  return result;
}

/// Direct layer calls on the quiet store after a traced run: predicts near
/// and far, training, the incremental miner and the journal writer, on a
/// fixed sample of objects; then registrations of new ids.
void LayerProbe(Tracer* tracer, MovingObjectStore* store,
                const Fleet& fleet, const std::string& scratch_dir,
                Errors* errors) {
  const ObjectStoreOptions options = StoreOptions(1, "");
  Random rng(0x5eed);
  std::vector<ObjectId> sample;
  for (int i = 0; i < 32; ++i) {
    sample.push_back(1 + static_cast<ObjectId>(rng.Uniform(fleet.size())));
  }
  for (const ObjectId id : sample) {
    const Timestamp now = static_cast<Timestamp>(store->HistoryLength(id)) - 1;
    TracedPredict(tracer, *store, fleet.of(id), id, now, now + NearHorizon(rng),
                  errors);
    TracedPredict(tracer, *store, fleet.of(id), id, now, now + FarHorizon(rng),
                  errors);
  }
  for (size_t i = 0; i < 8; ++i) {
    const ObjectId id = sample[i];
    const Timestamp now = static_cast<Timestamp>(store->HistoryLength(id)) - 1;
    const StatusOr<Trajectory> history = fleet.of(id).Slice(0, now + 1);
    StatusOr<std::shared_ptr<const HybridPredictor>> model =
        store->GetPredictor(id);
    if (!history.ok() || !model.ok()) {
      errors->Add("layer probe: object " + std::to_string(id) + " not trained");
      continue;
    }
    {
      RequestTrace trace(&tracer->log, "request.train");
      const bool trained = Timed(trace, "mining.HybridPredictor.Train", [&] {
        return HybridPredictor::Train(*history, options.predictor).ok();
      });
      if (!trained) errors->Add("Train failed for " + std::to_string(id));
    }
    hpm::IncrementalMiner miner(options.rebuild.miner, kPeriod,
                                options.predictor.mining);
    miner.AdoptRegions((*model)->regions());
    RequestTrace trace(&tracer->log, "request.observe");
    for (const Point& p : history->points()) {
      Timed(trace, "mining.IncrementalMiner.Observe", [&] {
        miner.Observe(p);
        return 0;
      });
    }
  }

  // Registration: first reports of never-seen ids on the final directory.
  for (int i = 0; i < 64; ++i) {
    RequestTrace trace(&tracer->log, "request.register");
    const bool registered = Timed(trace, "server.ReportLocation.register", [&] {
      return store->ReportLocation((ObjectId{1} << 40) + i, UniformPoint(rng))
          .ok();
    });
    if (!registered) errors->Add("registering a new id failed");
  }

  ResetDir(scratch_dir);
  hpm::WalWriterOptions wal_options;
  wal_options.sync_policy = hpm::WalSyncPolicy::kNone;
  StatusOr<std::unique_ptr<hpm::WalWriter>> writer =
      hpm::WalWriter::Open(scratch_dir, 0, 0, 0, wal_options);
  if (!writer.ok()) {
    errors->Add("probe journal: " + writer.status().ToString());
    return;
  }
  const Trajectory& path = fleet.of(sample[0]);
  for (int batch = 0; batch < 16; ++batch) {
    RequestTrace trace(&tracer->log, "request.journal");
    for (int i = 0; i < 64; ++i) {
      const Timestamp t = (batch * 64 + i) % static_cast<Timestamp>(path.size());
      const bool ok = Timed(trace, "io.WalWriter.Append", [&] {
        return (*writer)->Append(ReportRecord(sample[0], t, path.At(t)), nullptr)
            .ok();
      });
      if (!ok) errors->Add("probe journal append failed");
    }
    const bool synced = Timed(trace, "io.WalWriter.Sync",
                              [&] { return (*writer)->Sync().ok(); });
    if (!synced) errors->Add("probe journal sync failed");
  }
}

// ---- Phase results ----------------------------------------------------------

/// What one run of a workload measured.
struct Phase {
  Errors errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  double rss_kb_per_object = 0;
  double pred_err = 0;
  double ops_s = 0;
  std::vector<Sample> main_us;
  std::vector<Sample> side_us;
  SloCounter slo{0};
  ThreadBudget budget;
  /// The store's journal directory, when it has one.
  std::string wal_dir;
  /// Traced runs: per-layer values the workload measures itself.
  std::map<std::string, double> layer;
  MetricsSnapshot before, after;
};

uint64_t Delta(const Phase& phase, const std::string& counter) {
  return phase.after.counter(counter) - phase.before.counter(counter);
}

/// Sets up `repeats` times, keeping the last; setup_s is the median time,
/// rss_kb_per_object the first setup's resident-memory growth per object.
template <typename Rig, typename Make>
std::unique_ptr<Rig> SetupRepeated(int repeats, int objects, Phase* phase,
                                   Make make) {
  std::unique_ptr<Rig> kept;
  std::vector<double> seconds;
  for (int rep = 0; rep < repeats; ++rep) {
    kept.reset();
    const long rss_before = RssKb();
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Rig> rig = make(rep);
    seconds.push_back(MicrosBetween(start, Clock::now()) / 1e6);
    if (rep == 0) {
      phase->rss_kb_per_object =
          static_cast<double>(RssKb() - rss_before) / objects;
    }
    kept = std::move(rig);
    if (kept == nullptr) return nullptr;
  }
  phase->setup_s = *Median(seconds);
  return kept;
}

/// Median distance from each object's top-1 prediction to its true
/// location, over every object at the fixed evaluation horizons. The median,
/// not the mean: one period in ten is a random wander no model can predict,
/// and how many of those a seed draws moves the mean by 15% between seeds.
/// When `latencies` is set, each evaluation predict is timed into it.
double PredictionError(const MovingObjectStore& store, const Fleet& fleet,
                       Errors* errors, std::vector<Sample>* latencies = nullptr) {
  std::vector<double> distances;
  for (ObjectId id = 1; id <= fleet.size(); ++id) {
    const Timestamp now = static_cast<Timestamp>(store.HistoryLength(id)) - 1;
    for (const Timestamp h : kEvalHorizons) {
      const Clock::time_point t0 = Clock::now();
      const StatusOr<std::vector<Prediction>> p =
          store.PredictLocation(id, now + h, 1);
      if (latencies != nullptr) {
        latencies->push_back(
            {SecondsOf(Clock::now()), MicrosBetween(t0, Clock::now())});
      }
      if (!p.ok() || !SanePredictions(*p)) {
        errors->Add("evaluation predict failed for " + std::to_string(id));
        continue;
      }
      const Point truth = fleet.of(id).At(now + h);
      distances.push_back(std::hypot(p->front().location.x - truth.x,
                                     p->front().location.y - truth.y));
    }
  }
  return Median(std::move(distances)).value_or(0.0);
}

/// Sum of every trained object's query counters and frozen-arena bytes.
struct ModelTotals {
  hpm::QueryCounters counters;
  size_t arena_bytes = 0;
  int trained = 0;
};

ModelTotals SumModels(const MovingObjectStore& store) {
  ModelTotals totals;
  for (const ObjectId id : store.ObjectIds()) {
    StatusOr<std::shared_ptr<const HybridPredictor>> model =
        store.GetPredictor(id);
    if (!model.ok()) continue;
    const hpm::QueryCounters c = (*model)->counters();
    totals.counters.forward_queries += c.forward_queries;
    totals.counters.backward_queries += c.backward_queries;
    totals.counters.pattern_answers += c.pattern_answers;
    totals.arena_bytes += (*model)->tpt().MemoryBytes();
    ++totals.trained;
  }
  return totals;
}

/// Per-layer values from the models' own counters over a traced run.
void AddModelLayers(const ModelTotals& before, const ModelTotals& after,
                    Phase* phase) {
  const double queries = static_cast<double>(
      after.counters.forward_queries + after.counters.backward_queries -
      before.counters.forward_queries - before.counters.backward_queries);
  phase->layer["core.pattern_answer_frac"] =
      queries > 0 ? static_cast<double>(after.counters.pattern_answers -
                                        before.counters.pattern_answers) /
                        queries
                  : 0.0;
  phase->layer["tpt.arena_kb_per_object"] =
      static_cast<double>(after.arena_bytes) / 1024.0 /
      std::max(1, after.trained);
}

/// Closed-loop clients: runs each `client(index, deadline)` on its own
/// thread until the deadline.
void RunClients(int clients, int seconds,
                const std::function<void(int, Clock::time_point)>& client) {
  std::latch start(clients + 1);
  std::vector<std::thread> threads;
  Clock::time_point deadline;
  std::atomic<bool> go{false};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      client(c, deadline);
    });
  }
  start.arrive_and_wait();
  deadline = Clock::now() + std::chrono::seconds(seconds);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

double MedianOr0(const std::vector<double>& samples) {
  return Median(samples).value_or(0.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> values;
  for (const Sample& s : samples) values.push_back(s.us);
  return values;
}

// ---- read_mix ---------------------------------------------------------------

constexpr int kReadObjects = 1024;
/// read_mix alternates point-predict and fleet-query blocks of this length.
constexpr int kReadBlockMs = 500;

void ReadMix(const Args& args, Tracer* tracer, int setup_repeats,
             Phase* phase) {
  const Fleet fleet =
      MakeFleet(kReadObjects, 0, args.seed, kSetupTicks + kEvalMax + 1);
  // Fan-out runs inline on the client's thread.
  ObjectStoreOptions options = StoreOptions(1, "");
  if (tracer != nullptr) options.trace_sink = tracer->Sink();
  std::unique_ptr<MovingObjectStore> store = SetupRepeated<MovingObjectStore>(
      setup_repeats, kReadObjects, phase, [&](int) {
        auto made = std::make_unique<MovingObjectStore>(options);
        const Status fed = FeedFleet(made.get(), fleet, kSetupTicks);
        if (!fed.ok()) {
          phase->errors.Add(fed.ToString());
          return std::unique_ptr<MovingObjectStore>();
        }
        return made;
      });
  if (store == nullptr) return;
  phase->budget = {1, 0, 0};
  const Timestamp now = kSetupTicks - 1;
  if (tracer != nullptr) tracer->ResetTotals();
  const ModelTotals models_before = SumModels(*store);
  phase->before = store->metrics_snapshot();

  // One closed-loop client alternates blocks of point predicts with blocks
  // of fleet queries (range:kNN 3:1), rather than one thread for each: fleet
  // queries running beside the predicts warm the cache for them, and predict
  // latency then flips between two modes 50% apart from second to second.
  // ops_s is the median predict rate over the predict blocks.
  const int blocks = std::max(1, args.seconds * 1000 / kReadBlockMs);
  std::vector<double> predict_rates;
  uint64_t predicts = 0, fleet_queries = 0;
  phase->slo = SloCounter(kInProcessLimitUs);
  Random load(args.seed * 1000003 + 1);
  for (int b = 0; b < blocks; ++b) {
    const bool fleet_block = b % 2 == 1;
    const Clock::time_point begin = Clock::now();
    const Clock::time_point deadline =
        begin + std::chrono::milliseconds(kReadBlockMs);
    uint64_t count = 0;
    for (; Clock::now() < deadline; ++count) {
      bool ok = false;
      double latency = 0;
      if (!fleet_block) {
        const uint64_t i = predicts++;
        const ObjectId id = 1 + static_cast<ObjectId>(load.Uniform(kReadObjects));
        const Timestamp tq = now + PredictHorizon(i, load);
        if (tracer != nullptr && i % kTraceEvery == 0) {
          const TracedPredictResult traced = TracedPredict(
              tracer, *store, fleet.of(id), id, now, tq, &phase->errors);
          ok = traced.ok;
          latency = traced.e2e_us;
        } else {
          const Clock::time_point t0 = Clock::now();
          const StatusOr<std::vector<Prediction>> p =
              store->PredictLocation(id, tq, 1);
          latency = MicrosBetween(t0, Clock::now());
          ok = p.ok() && SanePredictions(*p);
        }
        phase->main_us.push_back({SecondsOf(Clock::now()), latency});
        phase->slo.Add(latency, ok);
      } else {
        const Timestamp tq = now + NearHorizon(load);
        const bool knn = fleet_queries++ % 4 == 3;
        const Point target = UniformPoint(load);
        const hpm::BoundingBox box = RandomBox(load);
        std::unique_ptr<RequestTrace> trace;
        int e2e = 0;
        if (tracer != nullptr) {
          trace = std::make_unique<RequestTrace>(&tracer->log, "request.fleet");
          e2e = trace->Begin(knn ? "server.PredictiveNearestNeighbors"
                                 : "server.PredictiveRangeQuery");
        }
        const Clock::time_point t0 = Clock::now();
        StatusOr<hpm::FleetQueryResult> r = [&] {
          const Tracer::Graft graft(trace.get(), e2e);
          return knn ? store->PredictiveNearestNeighbors(target, tq, 8)
                     : store->PredictiveRangeQuery(box, tq, 3);
        }();
        latency = MicrosBetween(t0, Clock::now());
        if (trace != nullptr) trace->End(e2e);
        ok = r.ok() && SaneHits(*r) && (!knn || r->hits.size() == 8);
        phase->side_us.push_back({SecondsOf(Clock::now()), latency});
      }
      if (!ok) ++phase->failed;
    }
    if (!fleet_block) {
      predict_rates.push_back(static_cast<double>(count) /
                              (MicrosBetween(begin, Clock::now()) / 1e6));
    }
  }
  phase->after = store->metrics_snapshot();
  const ModelTotals models_after = SumModels(*store);
  phase->attempted = phase->main_us.size() + phase->side_us.size();
  phase->ops_s = MedianOr0(predict_rates);
  if (phase->failed > 0) {
    phase->errors.Add(std::to_string(phase->failed) +
                      " queries failed or answered outside the extent");
  }

  // Gate: sampled point predicts are bit-identical to a direct
  // HybridPredictor::Predict on the same query.
  Random rng(args.seed ^ 0xc0ffee);
  for (uint64_t i = 0; i < 256; ++i) {
    const ObjectId id = 1 + static_cast<ObjectId>(rng.Uniform(kReadObjects));
    const Timestamp tq = now + PredictHorizon(i, rng);
    const StatusOr<std::vector<Prediction>> served =
        store->PredictLocation(id, tq, 3);
    StatusOr<std::shared_ptr<const HybridPredictor>> model =
        store->GetPredictor(id);
    const StatusOr<std::vector<Prediction>> direct =
        model.ok() ? (*model)->Predict(DirectQuery(fleet.of(id), now, tq, 3))
                   : StatusOr<std::vector<Prediction>>(model.status());
    if (!served.ok() || !direct.ok() || !SanePredictions(*served) ||
        !SamePredictions(*served, *direct)) {
      phase->errors.Add("PredictLocation differs from a direct Predict for " +
                        std::to_string(id));
    }
  }
  // Gate: range answers equal a brute-force filter over every object's
  // PredictLocation.
  for (int q = 0; q < 4; ++q) {
    const hpm::BoundingBox box = RandomBox(rng);
    const Timestamp tq = now + NearHorizon(rng);
    const StatusOr<hpm::FleetQueryResult> result =
        store->PredictiveRangeQuery(box, tq, 3);
    std::set<ObjectId> expected;
    for (ObjectId id = 1; id <= kReadObjects; ++id) {
      const StatusOr<std::vector<Prediction>> p =
          store->PredictLocation(id, tq, 3);
      if (!p.ok()) continue;
      for (const Prediction& prediction : *p) {
        if (box.Contains(prediction.location)) expected.insert(id);
      }
    }
    std::set<ObjectId> got;
    if (result.ok()) {
      for (const hpm::RangeHit& hit : result->hits) got.insert(hit.id);
    }
    if (!result.ok() || got != expected ||
        got.size() != (result.ok() ? result->hits.size() : 0)) {
      phase->errors.Add("range query differs from the brute-force filter");
    }
  }
  phase->pred_err = PredictionError(*store, fleet, &phase->errors);

  if (tracer != nullptr) {
    AddModelLayers(models_before, models_after, phase);
    LayerProbe(tracer, store.get(), fleet, args.work_dir + "/probe-wal",
               &phase->errors);
  }
}

// ---- wire_mixed ---------------------------------------------------------------

constexpr int kWireObjects = 256;
constexpr int kConnections = 3;
/// Latency limit of wire_slo_frac, above a range query's service time.
constexpr double kWireLimitUs = 20000.0;
/// Ticks of path generated per object beyond set-up: more reports than the
/// reference host's connections send an object in a 60-second run.
constexpr Timestamp kWirePathTicks = 4000;

struct WireOp {
  enum class Kind { kReport, kPredict, kRange };
  Kind kind = Kind::kReport;
  ObjectId id = 0;
  Timestamp t = 0;  ///< Report tick, or predict/range query time.
  hpm::BoundingBox box;
};

/// One connection's seeded request stream: 70% reports of the connection's
/// own objects (round-robin), 25% predicts of its own objects, 5% range
/// queries.
class WireStream {
 public:
  WireStream(uint64_t seed, int connection)
      : rng_(seed * 7919 + static_cast<uint64_t>(connection) + 17) {
    for (ObjectId id = 1 + connection; id <= kWireObjects; id += kConnections) {
      own_.push_back(id);
      next_tick_[id] = kSetupTicks;
    }
  }

  WireOp Next() {
    WireOp op;
    const double kind = rng_.NextDouble();
    if (kind < 0.70) {
      op.kind = WireOp::Kind::kReport;
      op.id = own_[reports_++ % own_.size()];
      op.t = next_tick_[op.id]++;
    } else if (kind < 0.95) {
      op.kind = WireOp::Kind::kPredict;
      op.id = own_[rng_.Uniform(own_.size())];
      op.t = next_tick_[op.id] - 1 + PredictHorizon(predicts_++, rng_);
    } else {
      op.kind = WireOp::Kind::kRange;
      op.box = RandomBox(rng_);
      op.t = kSetupTicks - 1 + static_cast<Timestamp>(reports_ / own_.size()) +
             NearHorizon(rng_);
    }
    return op;
  }

 private:
  Random rng_;
  std::vector<ObjectId> own_;
  std::map<ObjectId, Timestamp> next_tick_;
  uint64_t reports_ = 0;
  uint64_t predicts_ = 0;
};

/// Journal records re-read from disk must equal the acknowledged reports,
/// object by object and in order, and the journal must still be durable.
void CheckJournal(const MovingObjectStore& store, const std::string& wal_dir,
                  const std::map<ObjectId, std::vector<hpm::WalRecord>>& acked,
                  Errors* errors) {
  if (!store.wal_durable()) errors->Add("journal is no longer durable");
  std::map<ObjectId, std::vector<hpm::WalRecord>> journal;
  for (const hpm::WalSegmentInfo& segment : hpm::ListWalSegments(wal_dir)) {
    StatusOr<hpm::WalSegmentContents> contents =
        hpm::ReadWalSegment(segment.path, /*truncate_torn_tail=*/false);
    if (!contents.ok() || !contents->header_ok || contents->corrupt ||
        contents->truncated_bytes != 0) {
      errors->Add("journal segment unreadable: " + segment.path);
      continue;
    }
    for (const hpm::WalRecord& record : contents->records) {
      if (record.type == hpm::WalRecord::Type::kReport) {
        journal[record.id].push_back(record);
      }
    }
  }
  if (journal.size() != acked.size()) {
    errors->Add("journal holds " + std::to_string(journal.size()) +
                " objects, acknowledged " + std::to_string(acked.size()));
    return;
  }
  for (const auto& [id, expected] : acked) {
    const std::vector<hpm::WalRecord>& records = journal[id];
    bool same = records.size() == expected.size();
    for (size_t i = 0; same && i < expected.size(); ++i) {
      same = records[i].t == expected[i].t &&
             SameBits(records[i].x, expected[i].x) &&
             SameBits(records[i].y, expected[i].y);
    }
    if (!same) {
      errors->Add("journal differs from acknowledged reports for " +
                  std::to_string(id));
    }
  }
}

struct WireRig {
  std::unique_ptr<MovingObjectStore> store;
  std::unique_ptr<HpmServer> server;
  std::vector<std::unique_ptr<HpmClient>> clients;
};

void WireMixed(const Args& args, Tracer* tracer, int setup_repeats,
               Phase* phase) {
  const Timestamp last_report_tick = kSetupTicks + kWirePathTicks;
  const Fleet fleet = MakeFleet(kWireObjects, 0, args.seed,
                                last_report_tick + kPeriod + kEvalMax + 1);

  std::string& wal_dir = phase->wal_dir;
  ObjectStoreOptions options = StoreOptions(1, "");
  if (tracer != nullptr) options.trace_sink = tracer->Sink();
  std::unique_ptr<WireRig> rig = SetupRepeated<WireRig>(
      setup_repeats, kWireObjects, phase, [&](int rep) {
        wal_dir = args.work_dir + "/wal-" + std::to_string(rep);
        ResetDir(wal_dir);
        ObjectStoreOptions with_wal = options;
        with_wal.durability = StoreOptions(1, wal_dir).durability;
        auto made = std::make_unique<WireRig>();
        made->store = std::make_unique<MovingObjectStore>(with_wal);
        const Status fed = FeedFleet(made->store.get(), fleet, kSetupTicks);
        hpm::HpmServerOptions server_options;
        server_options.handler_threads = kConnections;
        StatusOr<std::unique_ptr<HpmServer>> server =
            fed.ok() ? HpmServer::Start(made->store.get(), server_options)
                     : StatusOr<std::unique_ptr<HpmServer>>(fed);
        if (!server.ok()) {
          phase->errors.Add("wire setup: " + server.status().ToString());
          return std::unique_ptr<WireRig>();
        }
        made->server = std::move(*server);
        for (int c = 0; c < kConnections; ++c) {
          hpm::HpmClientOptions client_options;
          client_options.port = made->server->port();
          made->clients.push_back(std::make_unique<HpmClient>(client_options));
          if (!made->clients.back()->Ping().ok()) {
            phase->errors.Add("wire setup: ping failed");
            return std::unique_ptr<WireRig>();
          }
        }
        return made;
      });
  if (rig == nullptr) return;
  phase->budget = {kConnections, 0, kConnections};
  if (tracer != nullptr) tracer->ResetTotals();
  const ModelTotals models_before = SumModels(*rig->store);
  phase->before = rig->store->metrics_snapshot();
  const MetricsSnapshot net_before = rig->server->metrics_snapshot();

  // Traced runs journal each traced report again on a probe writer of the
  // connection's own, and retrain directly whenever a report swapped the
  // object's model (a swap is looked for after every report).
  std::vector<std::unique_ptr<hpm::WalWriter>> probe_wal(kConnections);
  std::atomic<uint64_t> swaps{0};
  if (tracer != nullptr) {
    ResetDir(args.work_dir + "/probe-wal");
    for (int c = 0; c < kConnections; ++c) {
      hpm::WalWriterOptions wal_options;
      wal_options.sync_policy = hpm::WalSyncPolicy::kInterval;
      StatusOr<std::unique_ptr<hpm::WalWriter>> writer = hpm::WalWriter::Open(
          args.work_dir + "/probe-wal", c, 0, 0, wal_options);
      if (!writer.ok()) {
        phase->errors.Add("probe journal: " + writer.status().ToString());
        return;
      }
      probe_wal[static_cast<size_t>(c)] = std::move(*writer);
    }
  }

  // Each connection sends its next request as soon as the previous reply
  // is in: a client of this store waits for its answers.
  std::vector<std::vector<WireOp>> sent(kConnections);
  std::vector<std::vector<char>> oks(kConnections);
  std::vector<std::vector<Sample>> latencies(kConnections);
  RunClients(kConnections, args.seconds, [&](int c, Clock::time_point deadline) {
    const size_t ci = static_cast<size_t>(c);
    HpmClient& client = *rig->clients[ci];
    WireStream stream(args.seed, c);
    std::map<ObjectId, const HybridPredictor*> models;
    for (uint64_t n = 0; Clock::now() < deadline; ++n) {
      const WireOp op = stream.Next();
      if (op.kind == WireOp::Kind::kReport && op.t >= last_report_tick) {
        phase->errors.Add("wire run outran the generated paths");
        return;
      }
      const bool traced = tracer != nullptr && n % kTraceEvery == 0;
      std::unique_ptr<RequestTrace> trace;
      int e2e = 0;
      if (traced) {
        trace = std::make_unique<RequestTrace>(&tracer->log, "request.wire");
        e2e = trace->Begin(op.kind == WireOp::Kind::kReport ? "net.HpmClient.Report"
                           : op.kind == WireOp::Kind::kPredict
                               ? "net.HpmClient.Predict"
                               : "net.HpmClient.Range");
      }
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      if (op.kind == WireOp::Kind::kReport) {
        const Point p = fleet.of(op.id).At(op.t);
        ok = client.Report({op.id, op.t, p.x, p.y}).ok();
      } else if (op.kind == WireOp::Kind::kPredict) {
        StatusOr<hpm::PredictReply> reply = client.Predict({op.id, op.t, 1, 0});
        ok = reply.ok() && SanePredictions(reply->predictions);
      } else {
        hpm::RangeRequest request;
        request.min_x = op.box.min().x;
        request.min_y = op.box.min().y;
        request.max_x = op.box.max().x;
        request.max_y = op.box.max().y;
        request.tq = op.t;
        StatusOr<hpm::FleetReply> reply = client.Range(request);
        ok = reply.ok() && SaneHits(reply->result);
      }
      const Clock::time_point done = Clock::now();
      latencies[ci].push_back({SecondsOf(done), MicrosBetween(t0, done)});
      sent[ci].push_back(op);
      oks[ci].push_back(ok ? 1 : 0);
      if (trace != nullptr) {
        trace->End(e2e);
        // The matching in-process call: this connection owns the object,
        // so its state cannot move between the two calls.
        if (op.kind == WireOp::Kind::kPredict) {
          const int call = trace->Begin("server.PredictLocation");
          {
            const Tracer::Graft graft(trace.get(), call);
            (void)rig->store->PredictLocation(op.id, op.t, 1);
          }
          trace->End(call);
        }
        if (op.kind == WireOp::Kind::kReport) {
          Timed(*trace, "io.WalWriter.Append", [&] {
            return probe_wal[ci]
                ->Append(ReportRecord(op.id, op.t, fleet.of(op.id).At(op.t)),
                         nullptr)
                .ok();
          });
        }
        if (n % (kTraceEvery * 8) == 0) {
          Timed(*trace, "net.HpmClient.Ping", [&] { return client.Ping().ok(); });
        }
      }
      if (tracer != nullptr && op.kind == WireOp::Kind::kReport) {
        StatusOr<std::shared_ptr<const HybridPredictor>> model =
            rig->store->GetPredictor(op.id);
        const HybridPredictor* current = model.ok() ? model->get() : nullptr;
        const auto [seen, fresh] = models.try_emplace(op.id, current);
        if (!fresh && seen->second != current) {
          seen->second = current;
          swaps.fetch_add(1, std::memory_order_relaxed);
          if (trace != nullptr) {
            const StatusOr<Trajectory> history =
                fleet.of(op.id).Slice(0, op.t + 1);
            Timed(*trace, "mining.HybridPredictor.Train", [&] {
              return HybridPredictor::Train(*history, options.predictor).ok();
            });
          }
        }
      }
    }
  });
  phase->after = rig->store->metrics_snapshot();
  const MetricsSnapshot net_after = rig->server->metrics_snapshot();

  phase->slo = SloCounter(kWireLimitUs);
  for (int c = 0; c < kConnections; ++c) {
    const size_t ci = static_cast<size_t>(c);
    for (size_t i = 0; i < sent[ci].size(); ++i) {
      const bool ok = oks[ci][i] != 0;
      phase->main_us.push_back(latencies[ci][i]);
      if (sent[ci][i].kind == WireOp::Kind::kRange) {
        phase->side_us.push_back(latencies[ci][i]);
      }
      phase->slo.Add(latencies[ci][i].us, ok);
      if (!ok) ++phase->failed;
    }
  }
  phase->attempted = phase->main_us.size();
  phase->ops_s = static_cast<double>(phase->attempted) / args.seconds;
  if (phase->failed > 0) {
    phase->errors.Add(std::to_string(phase->failed) + " wire requests failed");
  }
  if (const uint64_t bad = net_after.counter("net.bad_frames"); bad != 0) {
    phase->errors.Add("net.bad_frames = " + std::to_string(bad));
  }
  rig->clients.clear();
  rig->server->Stop();

  // Gate: the journal re-read from disk equals every acknowledged report,
  // set-up included.
  std::map<ObjectId, std::vector<hpm::WalRecord>> acked;
  for (ObjectId id = 1; id <= kWireObjects; ++id) {
    for (Timestamp t = 0; t < kSetupTicks; ++t) {
      acked[id].push_back(ReportRecord(id, t, fleet.of(id).At(t)));
    }
  }
  uint64_t reports = 0;
  for (int c = 0; c < kConnections; ++c) {
    const size_t ci = static_cast<size_t>(c);
    for (size_t i = 0; i < sent[ci].size(); ++i) {
      const WireOp& op = sent[ci][i];
      if (op.kind != WireOp::Kind::kReport || oks[ci][i] == 0) continue;
      acked[op.id].push_back(ReportRecord(op.id, op.t, fleet.of(op.id).At(op.t)));
      ++reports;
    }
  }
  CheckJournal(*rig->store, wal_dir, acked, &phase->errors);

  // Patterns never span a period boundary, so an object's error depends on
  // where in its period "now" falls, and the run leaves each connection's
  // objects at a different, seed-dependent offset. Reporting every object
  // on to the set-up offset first makes pred_err comparable across seeds.
  for (ObjectId id = 1; id <= kWireObjects; ++id) {
    for (Timestamp t = static_cast<Timestamp>(rig->store->HistoryLength(id));
         t % kPeriod != kSetupTicks % kPeriod; ++t) {
      if (const Status s = rig->store->ReportLocation(id, fleet.of(id).At(t));
          !s.ok()) {
        phase->errors.Add("top-up report failed: " + s.ToString());
      }
    }
  }
  phase->pred_err = PredictionError(*rig->store, fleet, &phase->errors);

  if (tracer != nullptr) {
    phase->layer["mining.model_swaps_per_kreport"] =
        1000.0 * Ratio(static_cast<double>(swaps.load()),
                       static_cast<double>(reports));
    phase->layer["net.requests"] = static_cast<double>(
        net_after.counter("net.requests") - net_before.counter("net.requests"));
    phase->layer["net.busy_rejected"] =
        static_cast<double>(net_after.counter("net.busy_rejected") -
                            net_before.counter("net.busy_rejected"));
    AddModelLayers(models_before, SumModels(*rig->store), phase);
    LayerProbe(tracer, rig->store.get(), fleet, args.work_dir + "/probe-wal-2",
               &phase->errors);
  }
}

// ---- Metrics ------------------------------------------------------------------

using WorkloadFn = void (*)(const Args&, Tracer*, int, Phase*);

struct Workload {
  std::string name;
  WorkloadFn run;
  /// Per-workload names of the generic end-to-end metrics.
  std::vector<std::pair<std::string, std::string>> aliases;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"read_mix",
       ReadMix,
       {{"predict_p50_us", "p50_us"},
        {"predict_p99_us", "p99_us"},
        {"fleet_p50_us", "side_p50_us"},
        {"fleet_p95_us", "side_p95_us"},
        {"predict_ops_s", "ops_s"},
        {"predict_slo_frac", "slo_frac"}}},
      {"wire_mixed",
       WireMixed,
       {{"wire_p50_us", "p50_us"},
        {"wire_p99_us", "p99_us"},
        {"wire_range_p50_us", "side_p50_us"},
        {"wire_range_p95_us", "side_p95_us"},
        {"wire_ops_s", "ops_s"},
        {"wire_slo_frac", "slo_frac"}}},
  };
  return workloads;
}

/// A per-layer metric and the end-to-end metric it should move, and where.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  const char* moves;
};

const std::vector<LayerMetricDef>& LayerDefs() {
  static const std::vector<LayerMetricDef> defs = {
      {"server.register_us", "us",
       "setup_s: set-up registers every object"},
      {"server.predict_overhead_us", "us",
       "p50_us (predict_p50_us) on read_mix"},
      {"server.objects_per_fleet_query", "1/query",
       "side_p50_us (fleet_p50_us) on read_mix"},
      {"server.stage_fanout_us", "us",
       "side_p50_us (fleet_p50_us) on read_mix"},
      {"server.stage_merge_us", "us",
       "side_p50_us (fleet_p50_us) on read_mix"},
      {"server.epoch_retired_per_report", "1/report",
       "p99_us (wire_p99_us) on wire_mixed"},
      {"server.epoch_limbo", "count",
       "p99_us (wire_p99_us) on wire_mixed"},
      {"server.trains_deferred", "count",
       "p99_us (wire_p99_us) on wire_mixed"},
      {"core.fqp_us", "us", "p50_us (predict_p50_us) on read_mix"},
      {"core.bqp_us", "us", "p99_us (predict_p99_us) on read_mix"},
      {"core.pattern_answer_frac", "ratio", "pred_err on read_mix"},
      {"motion.fit_us", "us", "p50_us and side_p50_us on read_mix"},
      {"motion.fits_per_predict", "1/predict",
       "p50_us (predict_p50_us) on read_mix"},
      {"tpt.nodes_per_predict", "1/predict",
       "p99_us (predict_p99_us) on read_mix"},
      {"tpt.entries_per_predict", "1/predict",
       "p99_us (predict_p99_us) on read_mix"},
      {"tpt.scan_ratio", "ratio", "p99_us (predict_p99_us) on read_mix"},
      {"tpt.arena_kb_per_object", "KB", "rss_kb_per_object on read_mix"},
      {"mining.train_us", "us",
       "p99_us (wire_p99_us) on wire_mixed: retrains ride on reports"},
      {"mining.model_swaps_per_kreport", "1/kreport",
       "p99_us (wire_p99_us) on wire_mixed"},
      {"mining.observe_ns", "ns",
       "p50_us (wire_p50_us) on wire_mixed once the store feeds a miner"},
      {"mining.rebuild_build_us", "us",
       "p99_us (wire_p99_us) on wire_mixed once rebuilds run"},
      {"rebuild.scheduled", "count",
       "p99_us (wire_p99_us) on wire_mixed once rebuilds run"},
      {"rebuild.completed", "count",
       "p99_us (wire_p99_us) on wire_mixed once rebuilds run"},
      {"rebuild.deferred", "count",
       "p99_us (wire_p99_us) on wire_mixed once rebuilds run"},
      {"rebuild.dropped", "count",
       "p99_us (wire_p99_us) on wire_mixed once rebuilds run"},
      {"io.wal_append_us", "us", "p50_us (wire_p50_us) on wire_mixed"},
      {"io.wal_sync_us", "us", "p50_us (wire_p50_us) on wire_mixed"},
      {"io.wal_bytes_per_report", "B",
       "p50_us (wire_p50_us) on wire_mixed"},
      {"io.wal_syncs_per_kreport", "1/kreport",
       "p50_us (wire_p50_us) on wire_mixed"},
      {"net.ping_us", "us", "p50_us (wire_p50_us) on wire_mixed"},
      {"net.requests", "count", "slo_frac and ok_frac on wire_mixed"},
      {"net.busy_rejected", "count",
       "slo_frac and ok_frac on wire_mixed"},
      {"trace.overhead_frac", "ratio",
       "none: the cost of the traced run itself"},
  };
  return defs;
}

std::vector<double> SpanMicros(const std::vector<Span>& spans,
                               const std::string& name) {
  std::vector<double> us;
  for (const Span& span : spans) {
    if (span.name == name) {
      us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  return us;
}



uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Per-layer values of a traced phase.
std::vector<Metric> LayerMetrics(const Args& args, const Phase& traced,
                                 const Phase& untraced, const Tracer& tracer,
                                 const std::vector<Span>& spans) {
  std::map<std::string, double> v = traced.layer;
  const std::map<std::string, Tracer::OpTotals> ops = tracer.totals();
  auto op_counter = [&](const std::string& op, const std::string& name) {
    const auto it = ops.find(op);
    if (it == ops.end()) return 0.0;
    const auto c = it->second.counters.find(name);
    return c == it->second.counters.end() ? 0.0 : static_cast<double>(c->second);
  };
  auto all_ops = [&](const std::string& name) {
    double total = 0;
    for (const auto& [op, totals] : ops) total += op_counter(op, name);
    return total;
  };
  auto calls = [&](const std::string& op) {
    const auto it = ops.find(op);
    return it == ops.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  auto fleet_stage = [&](const std::string& stage) {
    std::vector<double> us;
    for (const std::string op : {"range", "nearest"}) {
      const auto it = ops.find(op);
      if (it == ops.end()) continue;
      const auto s = it->second.stage_us.find(stage);
      if (s != it->second.stage_us.end()) {
        us.insert(us.end(), s->second.begin(), s->second.end());
      }
    }
    return MedianOr0(us);
  };

  v["server.register_us"] =
      MedianOr0(SpanMicros(spans, "server.ReportLocation.register"));
  {
    // PredictLocation minus the direct Predict of the same request.
    std::map<uint64_t, double> store_us, core_us;
    for (const Span& span : spans) {
      const double us = static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
      if (span.name == "server.PredictLocation") store_us[span.request] = us;
      if (span.name.rfind("core.Predict.", 0) == 0) core_us[span.request] = us;
    }
    std::vector<double> overhead;
    for (const auto& [request, us] : store_us) {
      if (const auto it = core_us.find(request); it != core_us.end()) {
        overhead.push_back(us - it->second);
      }
    }
    v["server.predict_overhead_us"] = MedianOr0(overhead);
  }
  const double fleet_queries = calls("range") + calls("nearest");
  v["server.objects_per_fleet_query"] =
      Ratio(op_counter("range", "objects_evaluated") +
                op_counter("nearest", "objects_evaluated"),
            fleet_queries);
  v["server.stage_fanout_us"] = fleet_stage("fanout");
  v["server.stage_merge_us"] = fleet_stage("merge");
  const double reports = calls("report");
  v["server.epoch_retired_per_report"] =
      Ratio(static_cast<double>(Delta(traced, "epoch.retired")), reports);
  v["server.epoch_limbo"] =
      static_cast<double>(traced.after.counter("epoch.retired") -
                          traced.after.counter("epoch.freed"));
  v["server.trains_deferred"] =
      static_cast<double>(Delta(traced, "store.trains_deferred"));
  v["core.fqp_us"] = MedianOr0(SpanMicros(spans, "core.Predict.fqp"));
  v["core.bqp_us"] = MedianOr0(SpanMicros(spans, "core.Predict.bqp"));
  v["motion.fit_us"] = MedianOr0(SpanMicros(spans, "motion.RMF.FitPredict"));
  const double evaluated = all_ops("objects_evaluated");
  v["motion.fits_per_predict"] = Ratio(all_ops("motion_fits"), evaluated);
  v["tpt.nodes_per_predict"] = Ratio(all_ops("tpt_nodes_visited"), evaluated);
  v["tpt.entries_per_predict"] = Ratio(all_ops("tpt_entries_tested"), evaluated);
  v["tpt.scan_ratio"] =
      Ratio(all_ops("tpt_blocks_scanned"), all_ops("tpt_entries_tested"));
  v["mining.train_us"] =
      MedianOr0(SpanMicros(spans, "mining.HybridPredictor.Train"));
  v["mining.observe_ns"] =
      1000.0 * MedianOr0(SpanMicros(spans, "mining.IncrementalMiner.Observe"));
  {
    const hpm::LatencyHistogram::Snapshot* before =
        traced.before.histogram("rebuild.build_us");
    const hpm::LatencyHistogram::Snapshot* after =
        traced.after.histogram("rebuild.build_us");
    const double count = after == nullptr ? 0.0
                         : static_cast<double>(after->count -
                                               (before ? before->count : 0));
    const double sum = after == nullptr ? 0.0
                       : static_cast<double>(after->sum_micros -
                                             (before ? before->sum_micros : 0));
    v["mining.rebuild_build_us"] = Ratio(sum, count);
  }
  for (const std::string name :
       {"rebuild.scheduled", "rebuild.completed", "rebuild.deferred",
        "rebuild.dropped"}) {
    v[name] = static_cast<double>(Delta(traced, name));
  }
  v["io.wal_append_us"] = MedianOr0(SpanMicros(spans, "io.WalWriter.Append"));
  v["io.wal_sync_us"] = MedianOr0(SpanMicros(spans, "io.WalWriter.Sync"));
  const double appended = static_cast<double>(Delta(traced, "wal.appended"));
  v["io.wal_syncs_per_kreport"] =
      1000.0 * Ratio(static_cast<double>(Delta(traced, "wal.synced")), appended);
  {
    // Bytes on disk per journaled report: the store's journal when it has
    // one, else the probe journal.
    const std::string& wal = traced.wal_dir;
    const double total = static_cast<double>(traced.after.counter("wal.appended"));
    v["io.wal_bytes_per_report"] =
        total > 0 ? Ratio(static_cast<double>(DirBytes(wal)), total)
                  : Ratio(static_cast<double>(DirBytes(args.work_dir + "/probe-wal")),
                          static_cast<double>(
                              SpanMicros(spans, "io.WalWriter.Append").size()));
  }
  v["net.ping_us"] = MedianOr0(SpanMicros(spans, "net.HpmClient.Ping"));
  const double untraced_p50 = MedianOr0(Values(untraced.main_us));
  v["trace.overhead_frac"] =
      Ratio(MedianOr0(Values(traced.main_us)) - untraced_p50, untraced_p50);

  std::vector<Metric> metrics;
  for (const LayerMetricDef& def : LayerDefs()) {
    const auto it = v.find(def.name);
    metrics.push_back({def.name, it == v.end() ? 0.0 : it->second, def.unit});
  }
  return metrics;
}

void AddPercentile(const std::vector<Sample>& samples, double q,
                   const std::string& name, std::vector<Metric>* metrics,
                   Phase* phase) {
  const std::optional<double> value = WindowedPercentile(samples, q);
  if (!value) {
    phase->errors.Add(name + ": fewer than ten samples beyond the percentile (" +
                      std::to_string(samples.size()) + " samples)");
  }
  metrics->push_back({name, value.value_or(0.0), "us"});
}

std::vector<Metric> EndToEndMetrics(Phase* phase) {
  std::vector<Metric> m;
  m.push_back({"setup_s", phase->setup_s, "s"});
  m.push_back({"ok_frac",
               Ratio(static_cast<double>(phase->attempted - phase->failed),
                     static_cast<double>(phase->attempted)),
               "ratio"});
  m.push_back({"rss_kb_per_object", phase->rss_kb_per_object, "KB"});
  m.push_back({"pred_err", phase->pred_err, "data-units"});
  m.push_back({"ops_s", phase->ops_s, "1/s"});
  AddPercentile(phase->main_us, 0.5, "p50_us", &m, phase);
  AddPercentile(phase->main_us, 0.99, "p99_us", &m, phase);
  AddPercentile(phase->side_us, 0.5, "side_p50_us", &m, phase);
  AddPercentile(phase->side_us, 0.95, "side_p95_us", &m, phase);
  m.push_back({"slo_frac", phase->slo.fraction(), "ratio"});
  return m;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : Workloads()) out.push_back(w.name);
    return out;
  }();
  return names;
}

Report RunWorkload(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  HPM_CHECK(workload != nullptr);
  Report report;
  report.aliases = workload->aliases;
  report.aliases.insert(report.aliases.begin(),
                        {{"setup_s", "setup_s"},
                         {"failed_frac", "1 - ok_frac"},
                         {"rss_kb_per_object", "rss_kb_per_object"},
                         {"pred_err", "pred_err"}});

  auto finish = [&](Phase& phase) {
    for (const std::string& e : phase.errors.list()) report.errors.push_back(e);
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    report.budget = phase.budget;
  };

  Phase untraced;
  workload->run(args, nullptr, args.trace ? 1 : kSetupRepeats, &untraced);
  if (!args.trace) {
    report.metrics = EndToEndMetrics(&untraced);
    finish(untraced);
    return report;
  }
  finish(untraced);
  Tracer tracer;
  Phase traced;
  workload->run(args, &tracer, 1, &traced);
  report.spans = tracer.log.spans();
  report.metrics = LayerMetrics(args, traced, untraced, tracer, report.spans);
  for (const auto& [name, value] : traced.after.counters) {
    report.counter_deltas.push_back(
        {name, static_cast<double>(value - traced.before.counter(name))});
  }
  for (const LayerMetricDef& def : LayerDefs()) {
    report.layer_map.push_back({def.name, def.moves});
  }
  finish(traced);
  return report;
}

}  // namespace hpmbench
