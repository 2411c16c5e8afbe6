// Property suite: every decoder built on the shared codec
// (common/codec.h) returns a Status on damaged bytes — it never crashes,
// reads out of bounds or over-allocates. Each target starts from a
// valid encoding and is fed
//   * every truncation,
//   * every lying length field: each u32/u64 whose value looks like a
//     count or length, overwritten with an off-by-one or implausible one,
//   * seeded single-bit flips.
// Flips and lies run both as they are and "resealed" (the format's
// checksums recomputed over the damage), so they reach the field
// validators behind the CRC instead of stopping at it. The suite carries
// the tpt and net labels, which run it under ASan and UBSan, where a
// bad read fails the run even when the decoder's answer looks right.
//
// Beyond surviving, each target checks what its format promises:
//   model file, FTPT section   reject every truncation and every
//                              unresealed flip or lie (CRC-protected)
//   WAL segment                yields a prefix of the records written
//                              (unless resealed), and a header that
//                              ListWalSegments accepts matches its name
//   requests, replies          reject every strict prefix

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/crc32.h"
#include "core/hybrid_predictor.h"
#include "io/atomic_file.h"
#include "io/wal.h"
#include "net/protocol.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "tpt/frozen_tpt.h"
#include "tpt/tpt_tree.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

/// How the bytes a check receives were derived from the valid encoding.
enum class Damage {
  kNone,       ///< The valid encoding itself: it must be accepted.
  kTruncated,  ///< A strict prefix.
  kCorrupted,  ///< A flip or lie, checksums left as they were.
  kResealed,   ///< A flip or lie with the checksums recomputed.
};

struct Target {
  std::string name;
  std::string bytes;
  /// Recomputes the format's checksums over same-length damaged bytes.
  std::function<void(std::string*)> reseal = [](std::string*) {};
  /// "" when decoding `bytes` behaved as the format promises.
  std::function<std::string(const std::string&, Damage)> check;
  /// Offsets of the u32 / u64 fields whose value looks like a count or
  /// a length (in (0, 2^20]): where lies are told.
  std::vector<size_t> lengths32, lengths64;
};

/// "" when a decode that returned `status` is acceptable for `damage`
/// so far: the valid encoding must decode.
std::string RejectedValid(const Status& status, Damage damage) {
  if (status.ok() || damage != Damage::kNone) return "";
  return "valid encoding rejected: " + status.ToString();
}

/// This process's scratch root, removed at exit. Per process, because
/// ctest runs this binary's tests in parallel processes.
const std::string& ScratchRoot() {
  static const struct Root {
    std::string path =
        ::testing::TempDir() + "prop_codec_" + std::to_string(::getpid());
    ~Root() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } root;
  return root.path;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = ScratchRoot() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  HPM_CHECK(f != nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

void PutCrcAt(std::string* bytes, size_t crc_offset, size_t covered_from) {
  const uint32_t crc =
      Crc32(bytes->data() + covered_from, crc_offset - covered_from);
  std::memcpy(bytes->data() + crc_offset, &crc, sizeof(crc));
}

// ---- Wire protocol ------------------------------------------------------

Target RequestTarget(const std::string& name, std::string bytes) {
  Target target;
  target.name = "request/" + name;
  target.bytes = std::move(bytes);
  target.check = [](const std::string& bytes, Damage damage) {
    Request request;
    const Status decoded = DecodeRequest(bytes, &request);
    if (damage == Damage::kTruncated && decoded.ok()) {
      return std::string("a truncated request decoded");
    }
    return RejectedValid(decoded, damage);
  };
  return target;
}

/// A reply carrying `body`, decoded by `decode_body` after the envelope.
Target ReplyTarget(const std::string& name, const std::string& body,
                   std::function<Status(const std::string&)> decode_body) {
  ReplyInfo info;
  info.role = ServerRole::kReplica;
  info.generation = 12;
  info.staleness_us = 3456;
  Target target;
  target.name = "reply/" + name;
  target.bytes =
      EncodeReply(Status::Unavailable("retry after 5ms"), info, body);
  target.check = [decode_body](const std::string& bytes, Damage damage) {
    ReplyInfo decoded_info;
    std::string decoded_body;
    Status transported;
    Status decoded =
        DecodeReply(bytes, &decoded_info, &decoded_body, &transported);
    if (decoded.ok()) decoded = decode_body(decoded_body);
    if (damage == Damage::kTruncated && decoded.ok()) {
      return std::string("a truncated reply decoded");
    }
    return RejectedValid(decoded, damage);
  };
  return target;
}

std::vector<Prediction> SamplePredictions() {
  std::vector<Prediction> predictions(2);
  predictions[0].location = Point(1.0, 2.0);
  predictions[0].score = 0.75;
  predictions[0].source = PredictionSource::kPattern;
  predictions[0].pattern_id = 5;
  predictions[0].consequence_region = 2;
  predictions[0].confidence = 0.5;
  predictions[0].uncertainty = BoundingBox(Point(0.0, 0.0), Point(3.0, 3.0));
  predictions[1].location = Point(-4.0, 5.0);
  predictions[1].source = PredictionSource::kMotionFunction;
  predictions[1].degraded = DegradedReason::kPatternUnavailable;
  return predictions;
}

void AddWireTargets(std::vector<Target>* targets) {
  targets->push_back(
      RequestTarget("report", EncodeReport({7, 42, 1.5, -2.0})));
  PredictRequest predict;
  predict.id = -3;
  predict.tq = 99;
  predict.k = 4;
  predict.deadline_us = 20000;
  targets->push_back(RequestTarget("predict", EncodePredict(predict)));
  RangeRequest range;
  range.max_x = 200.0;
  range.max_y = 200.0;
  range.tq = 10;
  targets->push_back(RequestTarget("range", EncodeRange(range)));
  KnnRequest knn;
  knn.n = 5;
  targets->push_back(RequestTarget("knn", EncodeKnn(knn)));
  targets->push_back(
      RequestTarget("repl_state", EncodeReplState({1024, 77})));
  targets->push_back(RequestTarget(
      "repl_fetch", EncodeReplFetch({"wal/wal-0-2.log", 4096, 65536})));

  targets->push_back(ReplyTarget(
      "predictions", EncodePredictionsBody(SamplePredictions()),
      [](const std::string& body) {
        std::vector<Prediction> predictions;
        return DecodePredictionsBody(body, &predictions);
      }));
  FleetQueryResult fleet;
  fleet.partial = true;
  fleet.skipped_shards = {1, 3};
  for (const Prediction& p : SamplePredictions()) {
    fleet.hits.push_back(RangeHit{static_cast<ObjectId>(fleet.hits.size()),
                                  p});
  }
  targets->push_back(ReplyTarget("fleet", EncodeFleetBody(fleet),
                                 [](const std::string& body) {
                                   FleetQueryResult result;
                                   return DecodeFleetBody(body, &result);
                                 }));
  targets->push_back(ReplyTarget("stats", EncodeStatsBody("{\"ops\": 3}"),
                                 [](const std::string& body) {
                                   std::string json;
                                   return DecodeStatsBody(body, &json);
                                 }));
  targets->push_back(ReplyTarget(
      "repl_state", EncodeReplStateBody(9, {{0, 1, 0, 64}, {3, 7, 2, 128}}),
      [](const std::string& body) {
        uint64_t generation = 0;
        std::vector<WireSegment> segments;
        return DecodeReplStateBody(body, &generation, &segments);
      }));
  targets->push_back(ReplyTarget(
      "repl_fetch", EncodeReplFetchBody(4096, true, "segment bytes"),
      [](const std::string& body) {
        uint64_t file_size = 0;
        bool eof = false;
        std::string bytes;
        return DecodeReplFetchBody(body, &file_size, &eof, &bytes);
      }));
}

// ---- WAL segment --------------------------------------------------------

constexpr uint64_t kWalBaseGen = 5;

bool SameRecord(const WalRecord& a, const WalRecord& b) {
  return a.type == b.type && a.id == b.id && a.t == b.t && a.x == b.x &&
         a.y == b.y;
}

Target WalTarget() {
  std::vector<WalRecord> records(4);
  records[0] = {WalRecord::Type::kReport, 7, 0, 1.5, -2.25};
  records[1] = {WalRecord::Type::kRejected, -3, 0, 0.0, 0.0};
  records[2] = {WalRecord::Type::kRejectedBaseline, 9, 4, 0.0, 0.0};
  records[3] = {WalRecord::Type::kReport, 7, 1, 3.0, 4.0};
  const std::string source_dir = ScratchDir("wal_source");
  WalWriterOptions options;
  options.sync_policy = WalSyncPolicy::kNone;
  StatusOr<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(source_dir, 0, 1, kWalBaseGen, options);
  HPM_CHECK(writer.ok());
  for (const WalRecord& record : records) {
    HPM_CHECK((*writer)->Append(record, nullptr).ok());
  }
  StatusOr<std::string> bytes = ReadFileToString((*writer)->segment_path());
  HPM_CHECK(bytes.ok());

  Target target;
  target.name = "wal";
  target.bytes = *bytes;
  // Walk the frames by their (possibly damaged) length fields and seal
  // every complete one.
  target.reseal = [](std::string* bytes) {
    size_t offset = 0;
    while (bytes->size() - offset >= 8) {
      uint32_t length = 0;
      std::memcpy(&length, bytes->data() + offset, sizeof(length));
      if (bytes->size() - offset - 8 < length) break;
      const uint32_t crc =
          Crc32(bytes->data() + offset + 8, static_cast<size_t>(length));
      std::memcpy(bytes->data() + offset + 4, &crc, sizeof(crc));
      offset += 8 + length;
    }
  };
  const std::string dir = ScratchDir("wal");
  target.check = [records, dir](const std::string& bytes, Damage damage) {
    const std::string path = dir + "/wal-0-1.log";
    WriteBytes(path, bytes);
    const std::vector<WalSegmentInfo> listed = ListWalSegments(dir);
    if (listed.size() != 1) return std::string("segment not listed");
    StatusOr<WalSegmentContents> read =
        ReadWalSegment(path, /*truncate_torn_tail=*/false);
    if (!read.ok()) return RejectedValid(read.status(), damage);
    if (damage == Damage::kNone &&
        (!listed[0].header_ok || read->records.size() != records.size())) {
      return std::string("valid segment not read whole");
    }
    if (listed[0].header_ok &&
        (!read->header_ok || listed[0].base_gen != read->base_gen)) {
      return std::string("listed header disagrees with the scan");
    }
    if (damage == Damage::kResealed) return std::string();
    if (listed[0].header_ok && listed[0].base_gen != kWalBaseGen) {
      return std::string("damaged header accepted");
    }
    if (read->records.size() > records.size()) {
      return std::string("more records than were written");
    }
    for (size_t i = 0; i < read->records.size(); ++i) {
      if (!SameRecord(read->records[i], records[i])) {
        return "record " + std::to_string(i) + " differs from the one written";
      }
    }
    return std::string();
  };
  return target;
}

// ---- Frozen TPT section -------------------------------------------------

/// Parses a section; a parsed tree must be sound enough to search with a
/// query that intersects every key of the declared widths.
std::string CheckSection(const char* data, size_t size, Damage damage) {
  size_t consumed = 0;
  StatusOr<FrozenTpt> parsed = FrozenTpt::Parse(data, size, &consumed);
  if (!parsed.ok()) return RejectedValid(parsed.status(), damage);
  if (damage == Damage::kTruncated || damage == Damage::kCorrupted) {
    return std::string("damaged FTPT section parsed");
  }
  if (damage == Damage::kNone && consumed != size) {
    return std::string("valid section not consumed exactly");
  }
  if (consumed > size) return std::string("consumed past the section");
  if (const Status sound = parsed->CheckInvariants(); !sound.ok()) {
    return "parsed tree unsound: " + sound.ToString();
  }
  if (parsed->empty()) return std::string();
  PatternKey everything(parsed->premise_bits(), parsed->consequence_bits());
  for (size_t i = 0; i < parsed->premise_bits(); ++i) {
    everything.mutable_premise().Set(i);
  }
  for (size_t i = 0; i < parsed->consequence_bits(); ++i) {
    everything.mutable_consequence().Set(i);
  }
  std::vector<const FrozenLeaf*> hits;
  for (const SearchMode mode : {SearchMode::kPremiseAndConsequence,
                                SearchMode::kConsequenceOnly}) {
    // Resealed damage can zero a key, so only the bound is checked; the
    // point is that the walk stays inside the parsed arena.
    parsed->SearchInto(everything, mode, &hits);
    if (hits.size() > parsed->size()) {
      return std::string("a search returned more hits than patterns");
    }
  }
  return std::string();
}

Target FtptTarget() {
  Random rng(20261021);
  TptTree::Options options;
  options.max_node_entries = 4;
  options.min_node_entries = 2;
  StatusOr<TptTree> tree = TptTree::BulkLoad(
      proptest::RandomPatternSet(rng, 40, 24, 6, 0.2), options);
  HPM_CHECK(tree.ok());
  Target target;
  target.name = "ftpt";
  FrozenTpt::Freeze(*tree).AppendTo(&target.bytes);
  target.reseal = [](std::string* bytes) {
    PutCrcAt(bytes, bytes->size() - 4, 0);
  };
  target.check = [](const std::string& bytes, Damage damage) {
    return CheckSection(bytes.data(), bytes.size(), damage);
  };
  return target;
}

// ---- Model file ---------------------------------------------------------

Target ModelTarget() {
  HybridPredictorOptions options;
  options.regions.period = 6;
  options.regions.dbscan.eps = 12.0;
  options.regions.dbscan.min_pts = 3;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = 2;
  options.distant_threshold = 3;
  options.region_match_slack = 6.0;
  // Small on purpose (6 regions, 35 rules, ~3.6 KB): every length-like
  // field of the file is lied about exhaustively below.
  Random rng(20261022);
  const Trajectory history = proptest::PeriodicHistory(
      rng, 6, 5, BoundingBox({0.0, 0.0}, {10000.0, 10000.0}), 2.0);
  StatusOr<std::unique_ptr<HybridPredictor>> model =
      HybridPredictor::Train(history, options);
  HPM_CHECK(model.ok());
  HPM_CHECK(!(*model)->tpt().empty());
  const std::string dir = ScratchDir("model");
  const std::string path = dir + "/model.bin";
  HPM_CHECK((*model)->SaveToFile(path).ok());
  StatusOr<std::string> bytes = ReadFileToString(path);
  HPM_CHECK(bytes.ok());
  std::string section;
  (*model)->tpt().AppendTo(&section);

  Target target;
  target.name = "model";
  target.bytes = *bytes;
  // Footer: "HPMC" + CRC32 of the body; the FTPT section ends the body
  // and carries its own trailing CRC.
  const size_t footer = target.bytes.size() - 8;
  const size_t section_offset = footer - section.size();
  target.reseal = [footer, section_offset](std::string* bytes) {
    PutCrcAt(bytes, footer - 4, section_offset);
    PutCrcAt(bytes, footer + 4, 0);
  };
  target.check = [path](const std::string& bytes, Damage damage) {
    WriteBytes(path, bytes);
    StatusOr<std::unique_ptr<HybridPredictor>> loaded =
        HybridPredictor::LoadFromFile(path);
    if (!loaded.ok()) return RejectedValid(loaded.status(), damage);
    if (damage == Damage::kTruncated || damage == Damage::kCorrupted) {
      return std::string("damaged model file loaded");
    }
    // A model that passed every validator must decode and re-save.
    const std::vector<TrajectoryPattern> patterns = (*loaded)->Patterns();
    if (patterns.size() != (*loaded)->tpt().size()) {
      return std::string("loaded model decodes the wrong rule count");
    }
    if (!(*loaded)->SaveToFile(path).ok()) {
      return std::string("loaded model cannot be saved back");
    }
    return std::string();
  };
  return target;
}

const std::vector<Target>& Targets() {
  static const std::vector<Target>* targets = [] {
    auto* all = new std::vector<Target>();
    AddWireTargets(all);
    all->push_back(WalTarget());
    all->push_back(FtptTarget());
    all->push_back(ModelTarget());
    for (Target& target : *all) {
      const std::string& bytes = target.bytes;
      for (size_t at = 0; at < bytes.size(); ++at) {
        uint32_t u32 = 0;
        uint64_t u64 = 0;
        if (at + 4 <= bytes.size()) {
          std::memcpy(&u32, bytes.data() + at, 4);
          if (u32 > 0 && u32 <= (1u << 20)) target.lengths32.push_back(at);
        }
        if (at + 8 <= bytes.size()) {
          std::memcpy(&u64, bytes.data() + at, 8);
          if (u64 > 0 && u64 <= (1u << 20)) target.lengths64.push_back(at);
        }
      }
    }
    return all;
  }();
  return *targets;
}

// ---- Mutations ----------------------------------------------------------

struct Mutation {
  size_t target = 0;
  size_t offset = 0;
  /// 1 = single-bit flip of `bit`; 4 or 8 = a u32/u64 overwritten with
  /// `value`.
  size_t width = 1;
  int bit = 0;
  uint64_t value = 0;
  bool reseal = false;
};

/// The lies told about a length field holding `was` in an encoding of
/// `size` bytes: off by one either way, doubled, the encoding's own
/// size, the decoders' entry bounds, and the implausible extremes.
std::vector<uint64_t> LiesAbout(uint64_t was, size_t size, size_t width) {
  const uint64_t all_ones = width == 4 ? 0xffffffffull : ~0ull;
  std::vector<uint64_t> lies = {was + 1,        was - 1,     was * 2 + 1,
                                size,           (1u << 20),  (1u << 20) - 1,
                                all_ones >> 1,  all_ones,    0};
  for (uint64_t& lie : lies) lie &= all_ones;
  return lies;
}

std::string Describe(const Mutation& m) {
  std::string what = Targets()[m.target].name + " @" +
                     std::to_string(m.offset) + ": ";
  what += m.width == 1 ? "flip bit " + std::to_string(m.bit)
                       : "u" + std::to_string(m.width * 8) + " := " +
                             std::to_string(m.value);
  return what + (m.reseal ? " (resealed)" : "");
}

std::string CheckMutation(const Mutation& m) {
  const Target& target = Targets()[m.target];
  std::string bytes = target.bytes;
  if (m.width == 1) {
    bytes[m.offset] = static_cast<char>(bytes[m.offset] ^ (1 << m.bit));
  } else {
    std::memcpy(bytes.data() + m.offset, &m.value, m.width);
  }
  if (m.reseal) target.reseal(&bytes);
  if (bytes == target.bytes) return "";  // the lie told the truth
  const std::string failure =
      target.check(bytes, m.reseal ? Damage::kResealed : Damage::kCorrupted);
  return failure.empty() ? "" : Describe(m) + ": " + failure;
}

Mutation GenFlip(Random& rng) {
  Mutation m;
  m.target = rng.Uniform(Targets().size());
  m.offset = rng.Uniform(Targets()[m.target].bytes.size());
  m.bit = static_cast<int>(rng.Uniform(8));
  m.reseal = rng.Bernoulli(0.5);
  return m;
}

TEST(PropCodecMutationTest, ValidEncodingsDecode) {
  // The baseline every mutation starts from must itself be accepted:
  // a "rejects damage" check is vacuous if it rejects everything.
  for (const Target& target : Targets()) {
    EXPECT_EQ(target.check(target.bytes, Damage::kNone), "") << target.name;
    EXPECT_FALSE(target.lengths32.empty()) << target.name;
  }
}

TEST(PropCodecMutationTest, EveryTruncationIsRejectedOrAPrefix) {
  for (const Target& target : Targets()) {
    for (size_t n = 0; n < target.bytes.size(); ++n) {
      const std::string failure =
          target.check(target.bytes.substr(0, n), Damage::kTruncated);
      ASSERT_EQ(failure, "") << target.name << " cut to " << n << " bytes";
    }
  }
}

TEST(PropCodecMutationTest, EveryLyingLengthReturnsAStatus) {
  // Exhaustive rather than sampled: every length-like field of every
  // target, every lie, as-is and resealed.
  for (size_t t = 0; t < Targets().size(); ++t) {
    const Target& target = Targets()[t];
    for (const size_t width : {4, 8}) {
      for (const size_t offset :
           width == 4 ? target.lengths32 : target.lengths64) {
        uint64_t was = 0;
        std::memcpy(&was, target.bytes.data() + offset, width);
        for (const uint64_t lie :
             LiesAbout(was, target.bytes.size(), width)) {
          for (const bool reseal : {false, true}) {
            const Mutation m{t, offset, width, 0, lie, reseal};
            ASSERT_EQ(CheckMutation(m), "");
          }
        }
      }
    }
  }
}

TEST(PropCodecMutationTest, SeededBitFlipsReturnAStatus) {
  Property<Mutation> property("codec-bit-flip", GenFlip, CheckMutation);
  property.WithPrinter(Describe);
  RunnerOptions options;
  options.num_cases = 4000;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
