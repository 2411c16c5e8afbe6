#include "measure.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hpmbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - index - 1 < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index),
                   samples.end());
  return samples[index];
}

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  const size_t index = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index),
                   samples.end());
  return samples[index];
}

std::optional<double> WindowedPercentile(std::vector<Sample> samples, double q,
                                         int max_windows) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.t_s < b.t_s; });
  for (int windows = max_windows; windows >= 1; --windows) {
    const size_t size = samples.size() / static_cast<size_t>(windows);
    std::vector<double> per_window;
    for (int w = 0; w < windows; ++w) {
      // The last window takes the remainder.
      const size_t begin = static_cast<size_t>(w) * size;
      const size_t end = w + 1 == windows ? samples.size() : begin + size;
      std::vector<double> values;
      for (size_t i = begin; i < end; ++i) values.push_back(samples[i].us);
      const std::optional<double> value = Percentile(std::move(values), q);
      if (!value) break;
      per_window.push_back(*value);
    }
    if (per_window.size() == static_cast<size_t>(windows)) {
      return Median(std::move(per_window));
    }
  }
  return std::nullopt;
}

void SpanLog::Append(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

RequestTrace::RequestTrace(SpanLog* log, const std::string& root_name)
    : log_(log), request_(log->NewRequest()) {
  Begin(root_name, -1);
}

RequestTrace::~RequestTrace() {
  End(0);
  log_->Append(std::move(spans_));
}

int RequestTrace::Begin(const std::string& name, int parent) {
  const int64_t now = log_->Now();
  return Add(name, parent, now, now);
}

void RequestTrace::End(int index) { spans_[index].end_ns = log_->Now(); }

int RequestTrace::Add(const std::string& name, int parent, int64_t start_ns,
                      int64_t end_ns) {
  spans_.push_back({name, request_, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  // Group by request, keeping order: a span's parent indexes its
  // request's own list.
  std::map<uint64_t, std::vector<const Span*>> requests;
  for (const Span& span : spans) requests[span.request].push_back(&span);

  std::map<std::string, SelfTime> table;
  for (const auto& [request, list] : requests) {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(list.size());
    for (const Span* span : list) {
      if (span->parent >= 0 && static_cast<size_t>(span->parent) < list.size()) {
        children[static_cast<size_t>(span->parent)].push_back(
            {span->start_ns, span->end_ns});
      }
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const Span& span = *list[i];
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>>& cover = children[i];
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = span.start_ns;
      for (const auto& [begin, end] : cover) {
        const int64_t from = std::max(begin, reach);
        const int64_t to = std::min(end, span.end_ns);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
      SelfTime& row = table[span.name];
      ++row.count;
      row.total_ns += static_cast<double>(span.end_ns - span.start_ns);
      row.self_ns += static_cast<double>(span.end_ns - span.start_ns - covered);
    }
  }
  return table;
}

}  // namespace hpmbench
