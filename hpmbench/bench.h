// The HPM store benchmark: workloads against MovingObjectStore, in process
// (read_mix) and over loopback through HpmServer/HpmClient (wire_mixed).
//
// Every workload reports the same end-to-end metric names, each meaning
// the workload's own operation (the Workloads() table in workloads.cc maps
// them to per-workload names, e.g. p50_us on read_mix is predict_p50_us).
// A traced run (--trace 1) runs the workload untraced, then again with
// spans around sampled requests and the matching direct layer calls, and
// reports the per-layer metrics plus the tracing overhead.

#ifndef HPMBENCH_BENCH_H_
#define HPMBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"

namespace hpmbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for journals; created and removed by the run.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runnable threads during the measured window, against the host's
/// hardware threads.
struct ThreadBudget {
  int clients = 0;
  int pool = 0;      ///< Fan-out pool threads that run work (0 when inline).
  int handlers = 0;  ///< Network connection handlers.
  int total() const { return clients + pool + handlers; }
};

struct Report {
  /// Correctness-gate failures; empty when every answer checked out.
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// (per-workload metric name, generic metric name) for this workload.
  std::vector<std::pair<std::string, std::string>> aliases;
  ThreadBudget budget;
  /// Traced run only: spans, counter deltas and which end-to-end metric
  /// each per-layer metric should move.
  std::vector<Span> spans;
  std::vector<std::pair<std::string, double>> counter_deltas;
  std::vector<std::pair<std::string, std::string>> layer_map;
};

/// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

Report RunWorkload(const Args& args);

}  // namespace hpmbench

#endif  // HPMBENCH_BENCH_H_
