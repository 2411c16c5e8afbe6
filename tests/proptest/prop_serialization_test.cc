// Property suite: serialization round-trips on randomized instances. A
// trained model written by SaveToFile and read back by LoadFromFile must
// be observably identical (regions, patterns, summary, and — since the
// bytes are written raw — bit-identical predictions); a store saved to a
// directory must restore to the same fleet. The rules a model decodes
// from its frozen arena must be the miner's output field for field, and
// re-saving a loaded model must reproduce the file byte for byte — so
// model files depend only on what was mined.

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybrid_predictor.h"
#include "io/atomic_file.h"
#include "mining/offline_miner.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 12;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

HybridPredictorOptions PredictorOptions() {
  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 12.0;
  options.regions.dbscan.min_pts = 3;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = 2;
  options.distant_threshold = 6;
  options.region_match_slack = 6.0;
  return options;
}

/// Unique scratch path per invocation (checks may not reuse paths:
/// shrinking re-runs the check many times in one process).
std::string ScratchPath(const std::string& stem) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "hpm_" + stem + "_" +
         std::to_string(counter.fetch_add(1));
}

struct ModelCase {
  Trajectory history;
  Timestamp query_delta = 1;
};

ModelCase GenModelCase(Random& rng) {
  ModelCase c;
  const int periods = static_cast<int>(5 + rng.Uniform(4));
  c.history = proptest::PeriodicHistory(rng, kPeriod, periods, kExtent,
                                        rng.UniformDouble(1.0, 3.0));
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(2 * kPeriod));
  return c;
}

/// Empty when `got` equals `want` field for field and in order;
/// otherwise names the first difference, prefixed with `what`.
std::string PatternsDiffer(const std::vector<TrajectoryPattern>& want,
                           const std::vector<TrajectoryPattern>& got,
                           const std::string& what) {
  if (got.size() != want.size()) return what + ": pattern count differs";
  for (size_t i = 0; i < want.size(); ++i) {
    const TrajectoryPattern& a = want[i];
    const TrajectoryPattern& b = got[i];
    if (a.premise != b.premise || a.consequence != b.consequence ||
        a.confidence != b.confidence || a.support != b.support) {
      return what + ": pattern " + std::to_string(i) + " differs (" +
             a.ToString() + " vs " + b.ToString() + ")";
    }
  }
  return "";
}

std::string CheckModelRoundTrip(const ModelCase& input) {
  const HybridPredictorOptions options = PredictorOptions();
  StatusOr<std::unique_ptr<HybridPredictor>> trained =
      HybridPredictor::Train(input.history, options);
  if (!trained.ok()) return "Train failed: " + trained.status().ToString();
  const HybridPredictor& original = **trained;

  // The arena is the model's only rule store: decoding it must give back
  // exactly what the miner produced.
  StatusOr<OfflineMineResult> mined =
      MineOffline(input.history, options.regions, options.mining);
  if (!mined.ok()) return "MineOffline failed: " + mined.status().ToString();
  std::string failure = PatternsDiffer(mined->mined.patterns,
                                       original.Patterns(), "decoded rules");
  if (!failure.empty()) return failure;

  const std::string path = ScratchPath("model");
  const Status saved = original.SaveToFile(path);
  if (!saved.ok()) return "SaveToFile failed: " + saved.ToString();
  StatusOr<std::unique_ptr<HybridPredictor>> loaded =
      HybridPredictor::LoadFromFile(path);
  if (!loaded.ok()) {
    std::filesystem::remove(path);
    return "LoadFromFile failed: " + loaded.status().ToString();
  }
  const HybridPredictor& restored = **loaded;

  // Re-saving the loaded model must write the same bytes.
  const std::string resaved_path = ScratchPath("model_resaved");
  const Status resaved = restored.SaveToFile(resaved_path);
  const StatusOr<std::string> bytes = ReadFileToString(path);
  const StatusOr<std::string> resaved_bytes = ReadFileToString(resaved_path);
  std::filesystem::remove(path);
  std::filesystem::remove(resaved_path);
  if (!resaved.ok()) return "re-SaveToFile failed: " + resaved.ToString();
  if (!bytes.ok() || !resaved_bytes.ok()) return "cannot read a model file";
  if (*bytes != *resaved_bytes) {
    return "re-saving the loaded model changed the file (" +
           std::to_string(bytes->size()) + " vs " +
           std::to_string(resaved_bytes->size()) + " bytes)";
  }

  if (restored.regions().NumRegions() != original.regions().NumRegions()) {
    return "region count changed across the round trip";
  }
  for (size_t i = 0; i < original.regions().NumRegions(); ++i) {
    const FrequentRegion& a = original.regions().Region(static_cast<int>(i));
    const FrequentRegion& b = restored.regions().Region(static_cast<int>(i));
    if (a.offset != b.offset || a.index_at_offset != b.index_at_offset ||
        a.support != b.support || !(a.center == b.center) ||
        a.mbr.ToString() != b.mbr.ToString()) {
      return "region " + std::to_string(i) + " changed across the round trip";
    }
  }
  failure = PatternsDiffer(original.Patterns(), restored.Patterns(),
                           "round trip");
  if (!failure.empty()) return failure;
  if (restored.summary().num_sub_trajectories !=
      original.summary().num_sub_trajectories) {
    return "sub-trajectory count changed across the round trip";
  }

  // The rebuilt index must answer queries exactly like the original.
  PredictiveQuery query;
  const Timestamp now = static_cast<Timestamp>(input.history.size()) - 1;
  query.recent_movements = input.history.RecentMovements(now, 6);
  query.current_time = now;
  query.query_time = now + input.query_delta;
  query.k = 3;
  const StatusOr<std::vector<Prediction>> before = original.Predict(query);
  const StatusOr<std::vector<Prediction>> after = restored.Predict(query);
  if (before.ok() != after.ok() ||
      before.status().code() != after.status().code()) {
    return "prediction status changed across the round trip";
  }
  if (before.ok()) {
    if (before->size() != after->size()) {
      return "prediction count changed across the round trip";
    }
    for (size_t i = 0; i < before->size(); ++i) {
      if (!((*before)[i].location == (*after)[i].location) ||
          (*before)[i].score != (*after)[i].score ||
          (*before)[i].source != (*after)[i].source) {
        return "prediction " + std::to_string(i) +
               " changed across the round trip";
      }
    }
  }
  return "";
}

TEST(PropSerializationTest, ModelRoundTripPreservesEverything) {
  Property<ModelCase> property("model-save-load-round-trip", GenModelCase,
                               CheckModelRoundTrip);
  property.WithShrinker([](const ModelCase& input) {
    std::vector<ModelCase> out;
    for (Trajectory& shorter : proptest::ShrinkTrajectory(input.history)) {
      out.push_back({std::move(shorter), input.query_delta});
    }
    return out;
  });
  RunnerOptions options;
  options.num_cases = 15;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

struct StoreCase {
  std::vector<Trajectory> histories;
  Timestamp query_delta = 1;
};

StoreCase GenStoreCase(Random& rng) {
  StoreCase c;
  const int objects = static_cast<int>(1 + rng.Uniform(3));
  for (int i = 0; i < objects; ++i) {
    // Lengths straddle the training threshold so manifests carry both
    // modelled and model-less objects.
    const int periods = static_cast<int>(2 + rng.Uniform(6));
    c.histories.push_back(proptest::PeriodicHistory(
        rng, kPeriod, periods, kExtent, rng.UniformDouble(1.0, 3.0)));
  }
  c.query_delta = static_cast<Timestamp>(1 + rng.Uniform(kPeriod));
  return c;
}

std::string CheckStoreRoundTrip(const StoreCase& input) {
  ObjectStoreOptions options;
  options.predictor = PredictorOptions();
  options.min_training_periods = 4;
  options.recent_window = 6;
  options.num_shards = 4;
  options.query_threads = 1;

  MovingObjectStore store(options);
  for (size_t i = 0; i < input.histories.size(); ++i) {
    const Status status = store.ReportTrajectory(
        static_cast<ObjectId>(i) * 17, input.histories[i]);
    if (!status.ok()) {
      return "ReportTrajectory failed: " + status.ToString();
    }
  }

  const std::string dir = ScratchPath("store");
  const Status saved = store.SaveToDirectory(dir);
  if (!saved.ok()) return "SaveToDirectory failed: " + saved.ToString();
  StatusOr<MovingObjectStore> loaded =
      MovingObjectStore::LoadFromDirectory(dir, options);
  std::filesystem::remove_all(dir);
  if (!loaded.ok()) {
    return "LoadFromDirectory failed: " + loaded.status().ToString();
  }

  if (loaded->ObjectIds() != store.ObjectIds()) {
    return "object ids changed across the round trip";
  }
  for (const ObjectId id : store.ObjectIds()) {
    if (loaded->HistoryLength(id) != store.HistoryLength(id)) {
      return "history length changed for object " + std::to_string(id);
    }
    const bool had_model = store.GetPredictor(id).ok();
    if (loaded->GetPredictor(id).ok() != had_model) {
      return "trained-model presence changed for object " +
             std::to_string(id);
    }
    const Timestamp tq = static_cast<Timestamp>(store.HistoryLength(id)) -
                         1 + input.query_delta;
    const auto before = store.PredictLocation(id, tq, 2);
    const auto after = loaded->PredictLocation(id, tq, 2);
    if (before.ok() != after.ok() ||
        before.status().code() != after.status().code()) {
      return "prediction status changed for object " + std::to_string(id);
    }
    if (before.ok()) {
      if (before->size() != after->size()) {
        return "prediction count changed for object " + std::to_string(id);
      }
      for (size_t i = 0; i < before->size(); ++i) {
        if (!((*before)[i].location == (*after)[i].location)) {
          return "prediction changed for object " + std::to_string(id);
        }
      }
    }
  }
  return "";
}

TEST(PropSerializationTest, StoreDirectoryRoundTripPreservesFleet) {
  Property<StoreCase> property("store-save-load-round-trip", GenStoreCase,
                               CheckStoreRoundTrip);
  RunnerOptions options;
  options.num_cases = 10;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
