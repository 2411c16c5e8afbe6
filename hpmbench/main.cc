// hpmbench: runs one workload of the HPM store benchmark and prints its
// metrics. Usually started through run.py, which builds it first:
//
//   hpmbench --workload read_mix --seed 1 --seconds 10 --trace 0
//            [--work-dir DIR] [--out-dir DIR] [--revision REV]
//            [--source-digest SHA]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full record (provenance,
// metric aliases, layer map, counter deltas, self-time table) is written
// to <out-dir>/<workload>-seed<seed>-trace<0|1>.json, and a traced run's
// spans to <out-dir>/spans-<workload>-seed<seed>.json. Exits 1 when a
// correctness gate fails and 2 on bad arguments or a non-Release build.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench.h"

#ifndef HPMBENCH_BUILD_TYPE
#define HPMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hpmbench;

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool ReleaseBuild() {
#ifdef NDEBUG
  return std::string(HPMBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "hpmbench: %s\nusage: hpmbench --workload <name> --seed <n> "
               "--seconds <n> --trace <0|1> [--work-dir DIR] [--out-dir DIR] "
               "[--revision REV] [--source-digest SHA]\n",
               error.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string out_dir = ".bench_out";
  std::string revision = "unknown";
  std::string digest = "unknown";
  args.work_dir = ".bench_work";
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage(std::string("missing value for ") + argv[i]);
    flags[argv[i]] = argv[i + 1];
  }
  try {
    for (const auto& [flag, value] : flags) {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stoi(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") args.work_dir = value;
      else if (flag == "--out-dir") out_dir = value;
      else if (flag == "--revision") revision = value;
      else if (flag == "--source-digest") digest = value;
      else return Usage("unknown flag " + flag);
    }
  } catch (const std::exception&) {
    return Usage("malformed number");
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args.workload;
  if (!known) return Usage("unknown workload '" + args.workload + "'");
  if (args.seconds < 1 || args.seconds > 60) return Usage("--seconds must be 1..60");
  if (!ReleaseBuild()) {
    std::fprintf(stderr, "hpmbench: refusing to measure a %s build\n",
                 HPMBENCH_BUILD_TYPE);
    return 2;
  }
  // One scratch directory per process, so concurrent runs never share one.
  args.work_dir.append("/").append(std::to_string(::getpid()));
  std::filesystem::create_directories(args.work_dir);
  std::filesystem::create_directories(out_dir);

  const Report report = RunWorkload(args);
  std::filesystem::remove_all(args.work_dir);

  const unsigned nproc = std::thread::hardware_concurrency();
  const ThreadBudget& budget = report.budget;
  const bool oversubscribed =
      nproc != 0 && budget.total() > static_cast<int>(nproc);
  std::ostringstream provenance;
  provenance << "{\"workload\": " << Quote(args.workload)
             << ", \"seed\": " << args.seed
             << ", \"seconds\": " << args.seconds
             << ", \"trace\": " << (args.trace ? 1 : 0)
             << ", \"nproc\": " << nproc
             << ", \"cpu_model\": " << Quote(CpuModel())
             << ", \"build_type\": " << Quote(HPMBENCH_BUILD_TYPE)
             << ", \"compiler\": " << Quote(std::string("g++ ") + __VERSION__)
             << ", \"revision\": " << Quote(revision)
             << ", \"source_digest\": " << Quote(digest)
             << ", \"threads\": {\"clients\": " << budget.clients
             << ", \"pool\": " << budget.pool
             << ", \"handlers\": " << budget.handlers
             << ", \"total\": " << budget.total()
             << ", \"oversubscribed\": " << (oversubscribed ? "true" : "false")
             << "}}";

  std::ostringstream metrics;
  metrics << "{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    metrics << (i ? ", " : "") << Quote(m.name) << ": {\"value\": "
            << Num(m.value) << ", \"unit\": " << Quote(m.unit) << "}";
  }
  metrics << "}";
  const bool correct = report.errors.empty();
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed
         << ", \"metrics\": " << metrics.str() << "}";

  // The self-time table and the spans of a traced run.
  std::ostringstream self_time;
  self_time << "{";
  if (args.trace) {
    const std::map<std::string, SelfTime> table = SelfTimes(report.spans);
    std::map<std::string, SelfTime> layers;
    bool first = true;
    std::printf("self time by span (count, total ms, self ms):\n");
    for (const auto& [name, row] : table) {
      std::printf("  %-40s %8llu %10.3f %10.3f\n", name.c_str(),
                  static_cast<unsigned long long>(row.count),
                  row.total_ns / 1e6, row.self_ns / 1e6);
      SelfTime& layer = layers[name.substr(0, name.find('.'))];
      layer.count += row.count;
      layer.total_ns += row.total_ns;
      layer.self_ns += row.self_ns;
      self_time << (first ? "" : ", ") << Quote(name) << ": {\"count\": "
                << row.count << ", \"self_ms\": " << Num(row.self_ns / 1e6)
                << ", \"total_ms\": " << Num(row.total_ns / 1e6) << "}";
      first = false;
    }
    std::printf("self time by layer (ms):\n");
    for (const auto& [layer, row] : layers) {
      std::printf("  %-12s %10.3f\n", layer.c_str(), row.self_ns / 1e6);
    }
    std::ofstream spans(out_dir + "/spans-" + args.workload + "-seed" +
                        std::to_string(args.seed) + ".json");
    spans << "[";
    for (size_t i = 0; i < report.spans.size(); ++i) {
      const Span& s = report.spans[i];
      spans << (i ? ",\n" : "\n") << "{\"request\": " << s.request
            << ", \"name\": " << Quote(s.name) << ", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
            << "}";
    }
    spans << "\n]\n";
  }
  self_time << "}";

  std::ostringstream record;
  record << "{\"provenance\": " << provenance.str()
         << ",\n \"result\": " << result.str() << ",\n \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    record << (i ? ", " : "") << Quote(report.errors[i]);
  }
  record << "],\n \"aliases\": {";
  for (size_t i = 0; i < report.aliases.size(); ++i) {
    record << (i ? ", " : "") << Quote(report.aliases[i].first) << ": "
           << Quote(report.aliases[i].second);
  }
  record << "},\n \"layer_map\": {";
  for (size_t i = 0; i < report.layer_map.size(); ++i) {
    record << (i ? ", " : "") << Quote(report.layer_map[i].first) << ": "
           << Quote(report.layer_map[i].second);
  }
  record << "},\n \"counter_deltas\": {";
  for (size_t i = 0; i < report.counter_deltas.size(); ++i) {
    record << (i ? ", " : "") << Quote(report.counter_deltas[i].first) << ": "
           << Num(report.counter_deltas[i].second);
  }
  record << "},\n \"self_time\": " << self_time.str() << "}\n";
  std::ofstream(out_dir + "/" + args.workload + "-seed" +
                std::to_string(args.seed) + "-trace" +
                (args.trace ? "1" : "0") + ".json")
      << record.str();

  std::printf("provenance %s\n", provenance.str().c_str());
  if (oversubscribed) {
    std::printf("warning: %d runnable threads on %u hardware threads\n",
                budget.total(), nproc);
  }
  for (const std::string& error : report.errors) {
    std::printf("GATE FAILED: %s\n", error.c_str());
  }
  if (!args.trace) {
    // The workload's own names for the generic end-to-end metrics.
    std::map<std::string, const Metric*> by_name;
    for (const Metric& m : report.metrics) by_name[m.name] = &m;
    for (const auto& [alias, generic] : report.aliases) {
      if (generic == "1 - ok_frac") {
        std::printf("  %-22s %14.6g %s\n", alias.c_str(),
                    1.0 - by_name["ok_frac"]->value, "ratio");
      } else if (by_name.count(generic)) {
        std::printf("  %-22s %14.6g %s\n", alias.c_str(),
                    by_name[generic]->value, by_name[generic]->unit.c_str());
      }
    }
  } else {
    for (const Metric& m : report.metrics) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}
