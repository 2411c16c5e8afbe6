// Wire-protocol round-trip latency and replication shipping throughput
// over loopback.
//
// Measures p50/p99 microseconds per RPC for ping / report / predict
// against an in-process HpmServer (real TCP sockets, real frames — only
// the network distance is fake), then how fast a Replicator drains a
// primary's journal backlog (records/sec from bootstrap to converged).
// Emits JSON to stdout and a file (default BENCH_net.json, --out PATH)
// so successive runs leave a perf trajectory in the repo; the record
// carries the host's hardware thread count and the sample sizes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "server/object_store.h"
#include "server/replication.h"

namespace {

using hpm::HpmClient;
using hpm::HpmClientOptions;
using hpm::HpmServer;
using hpm::HpmServerOptions;
using hpm::MovingObjectStore;
using hpm::ObjectStoreOptions;
using hpm::Point;

constexpr int kIterations = 2000;
constexpr int kReplRecords = 5000;

struct Series {
  std::string name;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ops_per_sec = 0.0;
};

template <typename Op>
Series Measure(const std::string& name, int iterations, Op op) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iterations));
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (!op(i)) {
      std::fprintf(stderr, "%s: rpc failed at iteration %d\n", name.c_str(),
                   i);
      std::exit(1);
    }
    samples.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  const double total = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  std::sort(samples.begin(), samples.end());
  Series series;
  series.name = name;
  series.p50_us = samples[samples.size() / 2];
  series.p99_us = samples[samples.size() * 99 / 100];
  series.ops_per_sec = static_cast<double>(iterations) / total;
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    }
  }

  const std::string scratch =
      std::filesystem::temp_directory_path().string() + "/hpm_net_bench";
  std::filesystem::remove_all(scratch);
  const std::string primary_dir = scratch + "/primary";
  const std::string replica_dir = scratch + "/replica";
  std::filesystem::create_directories(primary_dir + "/wal");

  ObjectStoreOptions store_options;
  store_options.durability.wal_dir = primary_dir + "/wal";
  store_options.durability.sync_policy = hpm::WalSyncPolicy::kNone;
  MovingObjectStore store(store_options);

  HpmServerOptions server_options;
  server_options.data_dir = primary_dir;
  server_options.wal_dir = primary_dir + "/wal";
  auto server = HpmServer::Start(&store, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  HpmClientOptions client_options;
  client_options.port = (*server)->port();
  HpmClient client(client_options);

  std::vector<Series> series;
  series.push_back(Measure("ping", kIterations,
                           [&](int) { return client.Ping().ok(); }));
  series.push_back(Measure("report", kIterations, [&](int i) {
    hpm::ReportRequest report;
    report.id = 1 + i % 8;
    report.x = 0.1 * i;
    report.y = 0.2 * i;
    return client.Report(report).ok();
  }));
  series.push_back(Measure("predict", kIterations, [&](int i) {
    hpm::PredictRequest predict;
    predict.id = 1 + i % 8;
    predict.tq = static_cast<hpm::Timestamp>(
        store.HistoryLength(predict.id) + 2);
    return client.Predict(predict).ok();
  }));

  // Replication shipping: a journal backlog of kReplRecords records,
  // drained by one bootstrap + sync cycle.
  for (int i = 0; i < kReplRecords; ++i) {
    const hpm::ObjectId id = 100 + i % 16;
    (void)store.ReportLocation(id, Point(0.5 * i, 0.25 * i));
  }
  const auto repl_begin = std::chrono::steady_clock::now();
  auto gen = hpm::BootstrapReplica(client, replica_dir);
  if (!gen.ok()) {
    std::fprintf(stderr, "bootstrap: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }
  MovingObjectStore replica{ObjectStoreOptions{}};
  hpm::ReplicaHealth health;
  hpm::ReplicatorOptions repl_options;
  repl_options.data_dir = replica_dir;
  hpm::Replicator replicator(&client, &replica, &health, *gen, repl_options);
  if (hpm::Status synced = replicator.SyncOnce(); !synced.ok()) {
    std::fprintf(stderr, "sync: %s\n", synced.ToString().c_str());
    return 1;
  }
  const double repl_secs = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - repl_begin)
                               .count();
  Series repl;
  repl.name = "replication_drain";
  repl.ops_per_sec = static_cast<double>(replicator.applied_records()) /
                     repl_secs;
  series.push_back(repl);

  // hardware_concurrency() may return 0 ("unknown").
  char header[160];
  std::snprintf(header, sizeof(header),
                "{\n  \"bench\": \"net_roundtrip\",\n"
                "  \"hardware_threads\": %u,\n  \"iterations\": %d,\n"
                "  \"repl_records\": %d,\n",
                std::thread::hardware_concurrency(), kIterations,
                kReplRecords);
  std::string json = header;
  json += "  \"series\": [\n";
  for (size_t i = 0; i < series.size(); ++i) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"name\": \"%s\", \"p50_us\": %.1f, \"p99_us\": "
                  "%.1f, \"ops_per_sec\": %.0f}%s\n",
                  series[i].name.c_str(), series[i].p50_us,
                  series[i].p99_us, series[i].ops_per_sec,
                  i + 1 < series.size() ? "," : "");
    json += row;
  }
  json += "  ]\n}\n";
  std::fputs(json.c_str(), stdout);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::filesystem::remove_all(scratch);
  return 0;
}
