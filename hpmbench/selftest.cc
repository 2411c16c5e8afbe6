// Self-tests of the benchmark's measurement helpers (measure.h). run.py
// runs them before every benchmark run.

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "measure.h"

namespace hpmbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, ReportedOnlyWithTenSamplesBeyond) {
  // p99 of 1..1000 is 990, with exactly ten samples (991..1000) beyond.
  EXPECT_EQ(Percentile(Ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  EXPECT_FALSE(Percentile(Ramp(10), 0.5).has_value());
  EXPECT_EQ(Percentile(Ramp(200), 0.95), 190.0);
  EXPECT_FALSE(Percentile(Ramp(199), 0.95).has_value());
  EXPECT_EQ(Percentile(Ramp(21), 0.5), 11.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(Median(Ramp(5)), 3.0);
  EXPECT_EQ(Median(Ramp(4)), 2.0);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(PercentileTest, WindowedPercentileIgnoresOneBurstWindow) {
  // 10 windows of 1000 samples, 1..1000 each; window 3 is a burst with
  // every sample 100x slower.
  std::vector<Sample> samples;
  for (int w = 0; w < 10; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      samples.push_back({w + i / 1001.0, w == 3 ? i * 100.0 : i});
    }
  }
  EXPECT_EQ(WindowedPercentile(samples, 0.99), 990.0);
  EXPECT_EQ(WindowedPercentile(samples, 0.5), 500.0);
  // Fewer samples use fewer windows: 300 samples leave ten beyond p95
  // only as one window, and 199 not even then.
  std::vector<Sample> few(samples.begin(), samples.begin() + 300);
  EXPECT_EQ(WindowedPercentile(few, 0.95), 285.0);
  few.resize(199);
  EXPECT_FALSE(WindowedPercentile(few, 0.95).has_value());
}

TEST(SloCounterTest, FailuresCountAsMisses) {
  SloCounter slo(1000.0);
  slo.Add(10.0, true);     // met
  slo.Add(10.0, false);    // fast but failed: a miss
  slo.Add(1000.0, true);   // at the limit: met
  slo.Add(1000.5, true);   // over the limit: a miss
  EXPECT_EQ(slo.attempted(), 4u);
  EXPECT_EQ(slo.met(), 2u);
  EXPECT_DOUBLE_EQ(slo.fraction(), 0.5);
}

TEST(SelfTimeTest, DurationMinusCoveredChildIntervals) {
  // Root [0,100] with children [10,30] and [20,50] (overlapping: 40
  // covered) and [90,120] (clipped to 10 inside the root). The first child
  // has its own child [12,18].
  const std::vector<Span> spans = {
      {"root", 1, -1, 0, 100},  {"a", 1, 0, 10, 30},
      {"b", 1, 0, 20, 50},      {"c", 1, 0, 90, 120},
      {"a.inner", 1, 1, 12, 18},
      // A second request reusing the names: parents index its own spans.
      {"root", 2, -1, 0, 10},   {"a", 2, 0, 0, 10},
  };
  const std::map<std::string, SelfTime> table = SelfTimes(spans);
  EXPECT_EQ(table.at("root").count, 2u);
  EXPECT_DOUBLE_EQ(table.at("root").self_ns, (100 - 50) + 0);
  EXPECT_DOUBLE_EQ(table.at("root").total_ns, 110);
  EXPECT_DOUBLE_EQ(table.at("a").self_ns, (20 - 6) + 10);
  EXPECT_DOUBLE_EQ(table.at("b").self_ns, 30);
  EXPECT_DOUBLE_EQ(table.at("c").self_ns, 30);
  EXPECT_DOUBLE_EQ(table.at("a.inner").self_ns, 6);
}

TEST(SelfTimeTest, RequestTraceNestsSpans) {
  SpanLog log;
  {
    RequestTrace trace(&log, "request");
    const int child = trace.Begin("child");
    trace.End(child);
    trace.Add("measured", child, trace.start_ns(child), trace.start_ns(child));
  }
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

}  // namespace
}  // namespace hpmbench
