// Model visualisation: renders a trained model to SVG — the historical
// trajectory, the mined frequent regions, and one query with its HPM
// prediction versus the RMF extrapolation (a picture of the paper's
// Fig. 1 argument on real mined data).
//
// Usage:  visualize_model [output.svg]     (default: /tmp/hpm_model.svg)

#include <cstdio>
#include <string>
#include <vector>

#include "core/hybrid_predictor.h"
#include "datagen/datasets.h"
#include "io/svg.h"
#include "mining/transaction.h"
#include "motion/recursive_motion.h"

int main(int argc, char** argv) {
  using namespace hpm;
  const std::string out_path =
      argc > 1 ? argv[1] : "/tmp/hpm_model.svg";

  // A car commuter with pronounced turns — the motion-function failure
  // case from the paper's introduction.
  PeriodicGeneratorConfig gen = DefaultConfig(DatasetKind::kCar);
  gen.period = 120;
  gen.num_sub_trajectories = 60;
  const Dataset dataset = MakeDataset(DatasetKind::kCar, gen);

  HybridPredictorOptions options;
  options.regions.period = gen.period;
  options.regions.dbscan.eps = 30.0;
  options.regions.dbscan.min_pts = 4;
  options.regions.limit_sub_trajectories = 59;
  options.mining.min_confidence = 0.3;
  options.distant_threshold = 30;
  options.region_match_slack = 25.0;
  auto trained = HybridPredictor::Train(dataset.trajectory, options);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const auto& predictor = *trained;

  // The query: mid-morning of a held-out, pattern-following day (the
  // Car dataset's f = 0.6 means some days are irregular; pick a day
  // whose recent movements actually visit frequent regions, as a real
  // monitoring system would know from the live region matches).
  Timestamp now = 59 * gen.period + 40;
  size_t best_matches = 0;
  std::vector<int> visited;
  for (int day = 59; day >= 55; --day) {
    const Timestamp candidate = day * gen.period + 40;
    const auto recent = dataset.trajectory.RecentMovements(candidate, 10);
    MapMovementsToRegions(predictor->regions(), recent,
                          options.region_match_slack, &visited);
    const size_t matches = visited.size();
    if (matches > best_matches) {
      best_matches = matches;
      now = candidate;
    }
  }
  PredictiveQuery query;
  query.recent_movements = dataset.trajectory.RecentMovements(now, 10);
  query.current_time = now;
  query.query_time = now + 50;
  auto predictions = predictor->Predict(query);
  auto rmf_only = predictor->MotionFunctionPredict(query);
  if (!predictions.ok() || !rmf_only.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  const Point actual = dataset.trajectory.At(query.query_time);

  // ---- Render. ----------------------------------------------------------
  SvgWriter svg(BoundingBox({0, 0}, {10000, 10000}), 900.0);

  // Historical days, faint.
  for (size_t day = 0; day + 1 < 59; day += 6) {
    auto slice = dataset.trajectory.Slice(
        static_cast<Timestamp>(day) * gen.period,
        static_cast<Timestamp>(day + 1) * gen.period);
    if (slice.ok()) svg.AddTrajectory(*slice, "#c8c8c8", 1.0, 0.5);
  }
  // Frequent-region MBRs.
  for (const FrequentRegion& r : predictor->regions().regions()) {
    svg.AddRect(r.mbr, "#4daf4a", 1.0, 0.35);
  }
  // Recent movements (query premise window).
  std::vector<Point> recent_points;
  for (const TimedPoint& tp : query.recent_movements) {
    recent_points.push_back(tp.location);
  }
  svg.AddPolyline(recent_points, "#377eb8", 3.0);
  svg.AddCircle(recent_points.back(), 60, "#377eb8");
  svg.AddText(recent_points.back() + Point{90, 0}, "now", "#377eb8", 18);

  // HPM prediction, RMF extrapolation, and the truth.
  svg.AddCircle(predictions->front().location, 80, "#e41a1c");
  svg.AddText(predictions->front().location + Point{100, 0}, "HPM",
              "#e41a1c", 18);
  svg.AddCircle(rmf_only->location, 80, "#ff7f00");
  svg.AddText(rmf_only->location + Point{100, 0}, "RMF", "#ff7f00", 18);
  svg.AddCircle(actual, 80, "#000000", /*filled=*/false);
  svg.AddText(actual + Point{100, -150}, "actual", "#000000", 18);

  if (Status s = svg.WriteToFile(out_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("rendered %zu regions and the +50 query to %s\n",
              predictor->regions().NumRegions(), out_path.c_str());
  std::printf("  HPM error: %.1f\n",
              Distance(predictions->front().location, actual));
  std::printf("  RMF error: %.1f\n", Distance(rmf_only->location, actual));
  return 0;
}
