// Measurement helpers of the HPM store benchmark: latency samples and the
// percentile rule, SLO accounting, and in-memory spans with per-name self
// time. Self-tested by selftest.cc.

#ifndef HPMBENCH_MEASURE_H_
#define HPMBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace hpmbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// The `q`-quantile (0 < q < 1) of `samples` by nearest rank, or nullopt
/// when fewer than ten samples lie beyond it: a tail percentile is only
/// reported when it is backed by at least ten observations past it.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of `samples` (nullopt when empty). Same nearest-rank rule.
std::optional<double> Median(std::vector<double> samples);

/// One latency sample and when it completed (any steady-clock origin).
struct Sample {
  double t_s = 0;
  double us = 0;
};

inline double SecondsOf(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// The `q`-quantile of a run's latencies, made robust to bursts: the
/// samples are split, in completion order, into as many equal-count
/// windows (at most `max_windows`) as leave ten samples beyond the quantile
/// in each, and the result is the median of the windows' quantiles. A
/// burst that inflates one window moves the result by at most one rank.
/// nullopt when even a single window would be too small.
std::optional<double> WindowedPercentile(std::vector<Sample> samples, double q,
                                         int max_windows = 10);

/// Counts requests against a fixed latency limit. A failed or refused
/// request counts as a miss whatever its latency.
class SloCounter {
 public:
  explicit SloCounter(double limit_us) : limit_us_(limit_us) {}

  void Add(double latency_us, bool ok) {
    ++attempted_;
    if (ok && latency_us <= limit_us_) ++met_;
  }

  void Merge(const SloCounter& other) {
    attempted_ += other.attempted_;
    met_ += other.met_;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t met() const { return met_; }
  double fraction() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(met_) /
                                 static_cast<double>(attempted_);
  }

 private:
  double limit_us_;
  uint64_t attempted_ = 0;
  uint64_t met_ = 0;
};

/// One timed interval of a traced request. `parent` indexes the same
/// request's span list (-1 for the request root).
struct Span {
  std::string name;
  uint64_t request = 0;
  int parent = -1;
  int64_t start_ns = 0;  ///< Since the log's epoch.
  int64_t end_ns = 0;
};

/// Spans of traced requests, kept in memory and written out at exit.
/// Thread-safe; each request's spans are appended under one lock once the
/// request finishes, so concurrent requests never interleave mid-request.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  uint64_t NewRequest() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_request_;
  }

  void Append(std::vector<Span> spans);
  std::vector<Span> spans() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  uint64_t next_request_ = 0;
  std::vector<Span> spans_;
};

/// Builds one request's span tree on the calling thread.
class RequestTrace {
 public:
  RequestTrace(SpanLog* log, const std::string& root_name);
  ~RequestTrace();
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  /// Opens a span under `parent` (0 = the request root); returns its index.
  int Begin(const std::string& name, int parent = 0);
  void End(int index);
  /// Records an already measured interval.
  int Add(const std::string& name, int parent, int64_t start_ns,
          int64_t end_ns);
  int64_t start_ns(int index) const { return spans_[index].start_ns; }
  int64_t duration_ns(int index) const {
    return spans_[index].end_ns - spans_[index].start_ns;
  }

 private:
  SpanLog* log_;
  uint64_t request_;
  std::vector<Span> spans_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children counted once,
/// parts outside the parent ignored), summed over spans of that name.
struct SelfTime {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

}  // namespace hpmbench

#endif  // HPMBENCH_MEASURE_H_
