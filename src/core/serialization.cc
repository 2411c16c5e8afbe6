// Binary persistence for trained HybridPredictor models.
//
// Format v2 (little-endian, encoded with common/codec.h):
//   magic "HPM1" | version u32 | options | regions | patterns | num_subs u64
//   | builder_bytes u64 | frozen TPT section ("FTPT", own CRC)
//   | footer: magic "HPMC" | crc32 u32 of every preceding byte
// The frozen TPT arena is stored verbatim, so load validates bytes
// (structure + per-section CRC) instead of replaying the sequential
// bulk load, and cross-checks the arena's leaf payloads against the
// re-encoded pattern set so a logically inconsistent section can never
// serve wrong answers. The pattern table is written from the rules the
// arena decodes to (plus each rule's support); on load it is only
// cross-checked, and its supports kept. The footer makes torn writes and
// bit rot detectable (DataLoss) before the field validators run; the
// file itself is written via AtomicWriteFile, so a crashed save leaves
// the previous model intact rather than a prefix.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "core/hybrid_predictor.h"
#include "io/atomic_file.h"
#include "tpt/frozen_tpt.h"

namespace hpm {

namespace {

constexpr char kMagic[4] = {'H', 'P', 'M', '1'};
constexpr char kFooterMagic[4] = {'H', 'P', 'M', 'C'};
constexpr uint32_t kFormatVersion = 2;
constexpr size_t kFooterSize = sizeof(kFooterMagic) + sizeof(uint32_t);
/// A pattern record with an empty premise: premise size, consequence,
/// confidence and support, 8 bytes each.
constexpr uint64_t kMinPatternBytes = 4 * 8;

void WritePoint(std::string* f, const Point& p) {
  codec::PutF64(f, p.x);
  codec::PutF64(f, p.y);
}

Point ReadPoint(codec::Cursor* f) {
  Point p;
  f->F64(&p.x);
  f->F64(&p.y);
  return p;
}

void WriteBox(std::string* f, const BoundingBox& box) {
  codec::PutU8(f, box.IsEmpty() ? 1 : 0);
  if (!box.IsEmpty()) {
    WritePoint(f, box.min());
    WritePoint(f, box.max());
  }
}

BoundingBox ReadBox(codec::Cursor* f) {
  uint8_t empty = 0;
  f->U8(&empty);
  if (empty) return BoundingBox();
  const Point lo = ReadPoint(f);
  const Point hi = ReadPoint(f);
  return BoundingBox(lo, hi);
}

void WriteOptions(std::string* f, const HybridPredictorOptions& o) {
  codec::PutI64(f, o.regions.period);
  codec::PutF64(f, o.regions.dbscan.eps);
  codec::PutI64(f, o.regions.dbscan.min_pts);
  codec::PutI64(f, o.regions.limit_sub_trajectories);
  codec::PutF64(f, o.mining.min_confidence);
  codec::PutI64(f, o.mining.min_support);
  codec::PutI64(f, o.mining.max_pattern_length);
  codec::PutI64(f, o.mining.premise_window);
  codec::PutU8(f, o.mining.enable_pruning ? 1 : 0);
  codec::PutI64(f, o.tpt.max_node_entries);
  codec::PutI64(f, o.tpt.min_node_entries);
  codec::PutI64(f, static_cast<int64_t>(o.weight_function));
  codec::PutI64(f, o.distant_threshold);
  codec::PutI64(f, o.time_relaxation);
  codec::PutF64(f, o.region_match_slack);
  codec::PutI64(f, o.rmf.retrospect);
  codec::PutU8(f, o.rmf.auto_retrospect ? 1 : 0);
  codec::PutI64(f, o.rmf.window);
  WriteBox(f, o.rmf.clamp_box);
}

/// Reads an int64 field into a narrower integer option.
template <typename T>
void ReadNarrow(codec::Cursor* f, T* out) {
  int64_t i64 = 0;
  f->I64(&i64);
  *out = static_cast<T>(i64);
}

HybridPredictorOptions ReadOptions(codec::Cursor* f) {
  HybridPredictorOptions o;
  uint8_t u8 = 0;
  f->I64(&o.regions.period);
  f->F64(&o.regions.dbscan.eps);
  ReadNarrow(f, &o.regions.dbscan.min_pts);
  ReadNarrow(f, &o.regions.limit_sub_trajectories);
  f->F64(&o.mining.min_confidence);
  ReadNarrow(f, &o.mining.min_support);
  ReadNarrow(f, &o.mining.max_pattern_length);
  f->I64(&o.mining.premise_window);
  f->U8(&u8);
  o.mining.enable_pruning = u8 != 0;
  ReadNarrow(f, &o.tpt.max_node_entries);
  ReadNarrow(f, &o.tpt.min_node_entries);
  ReadNarrow(f, &o.weight_function);
  f->I64(&o.distant_threshold);
  f->I64(&o.time_relaxation);
  f->F64(&o.region_match_slack);
  ReadNarrow(f, &o.rmf.retrospect);
  f->U8(&u8);
  o.rmf.auto_retrospect = u8 != 0;
  ReadNarrow(f, &o.rmf.window);
  o.rmf.clamp_box = ReadBox(f);
  return o;
}

}  // namespace

Status HybridPredictor::SaveToFile(const std::string& path) const {
  std::string content(kMagic, sizeof(kMagic));
  codec::PutU32(&content, kFormatVersion);
  WriteOptions(&content, options_);

  codec::PutU64(&content, regions_.NumRegions());
  for (const FrequentRegion& r : regions_.regions()) {
    codec::PutI64(&content, r.id);
    codec::PutI64(&content, r.offset);
    codec::PutI64(&content, r.index_at_offset);
    WritePoint(&content, r.center);
    WriteBox(&content, r.mbr);
    codec::PutI64(&content, r.support);
  }

  const std::vector<TrajectoryPattern> patterns = Patterns();
  codec::PutU64(&content, patterns.size());
  for (const TrajectoryPattern& p : patterns) {
    codec::PutU64(&content, p.premise.size());
    for (int id : p.premise) codec::PutI64(&content, id);
    codec::PutI64(&content, p.consequence);
    codec::PutF64(&content, p.confidence);
    codec::PutI64(&content, p.support);
  }

  codec::PutU64(&content, summary_.num_sub_trajectories);
  codec::PutU64(&content, summary_.tpt_memory_bytes);
  tpt_.AppendTo(&content);

  const uint32_t crc = Crc32(content);
  codec::PutBytes(&content, kFooterMagic, sizeof(kFooterMagic));
  codec::PutU32(&content, crc);
  return AtomicWriteFile(path, content).Annotate("model");
}

StatusOr<std::unique_ptr<HybridPredictor>> HybridPredictor::LoadFromFile(
    const std::string& path) {
  StatusOr<std::string> read = ReadFileToString(path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kInvalidArgument) {
      return Status::InvalidArgument("cannot open file for reading: " + path);
    }
    return read.status();
  }
  const std::string& content = *read;

  // Header magic first: a foreign file is InvalidArgument, reserving
  // DataLoss for files that *were* hpm models but got torn or flipped.
  if (content.size() < sizeof(kMagic) ||
      std::memcmp(content.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an hpm model file: " + path);
  }
  if (content.size() < sizeof(kMagic) + kFooterSize ||
      std::memcmp(content.data() + content.size() - kFooterSize,
                  kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Status::DataLoss("torn model file (missing footer): " + path);
  }
  const size_t body_size = content.size() - kFooterSize;
  uint32_t stored_crc = 0;
  codec::Cursor(content.data() + body_size + sizeof(kFooterMagic),
                sizeof(stored_crc))
      .U32(&stored_crc);
  if (Crc32(content.data(), body_size) != stored_crc) {
    return Status::DataLoss("model file checksum mismatch: " + path);
  }

  codec::Cursor f(content.data() + sizeof(kMagic),
                  body_size - sizeof(kMagic));
  uint32_t version = 0;
  f.U32(&version);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition("unsupported model format version " +
                                      std::to_string(version));
  }
  HybridPredictorOptions options = ReadOptions(&f);
  if (!f.ok()) {
    return Status::InvalidArgument("truncated model file: " + path);
  }
  if (options.regions.period <= 0 ||
      options.regions.period > (1 << 24)) {
    return Status::InvalidArgument("corrupt period");
  }
  if (options.tpt.max_node_entries < 4 ||
      options.tpt.max_node_entries > (1 << 16) ||
      options.tpt.min_node_entries < 2 ||
      options.tpt.min_node_entries * 2 > options.tpt.max_node_entries + 1) {
    return Status::InvalidArgument("corrupt TPT options");
  }
  if (static_cast<int64_t>(options.weight_function) < 0 ||
      static_cast<int64_t>(options.weight_function) >
          static_cast<int64_t>(WeightFunction::kFactorial)) {
    return Status::InvalidArgument("corrupt weight function");
  }

  FrequentRegionSet regions;
  regions.set_period(options.regions.period);
  uint64_t num_regions = 0;
  f.U64(&num_regions);
  if (!f.ok() || num_regions > (1u << 24)) {
    return Status::InvalidArgument("corrupt region count");
  }
  for (uint64_t i = 0; i < num_regions; ++i) {
    FrequentRegion r;
    ReadNarrow(&f, &r.id);
    f.I64(&r.offset);
    ReadNarrow(&f, &r.index_at_offset);
    r.center = ReadPoint(&f);
    r.mbr = ReadBox(&f);
    ReadNarrow(&f, &r.support);
    if (!f.ok() || r.id != static_cast<int>(i) || r.offset < 0 ||
        r.offset >= options.regions.period) {
      return Status::InvalidArgument("corrupt region record");
    }
    regions.AddRegion(std::move(r));
  }

  std::vector<TrajectoryPattern> patterns;
  uint64_t num_patterns = 0;
  f.U64(&num_patterns);
  // A count the remaining bytes cannot hold is corrupt: reject it before
  // reserving room for it.
  if (!f.ok() || num_patterns > (1u << 28) ||
      num_patterns > f.remaining() / kMinPatternBytes) {
    return Status::InvalidArgument("corrupt pattern count");
  }
  patterns.reserve(num_patterns);
  for (uint64_t i = 0; i < num_patterns; ++i) {
    TrajectoryPattern p;
    uint64_t premise_size = 0;
    f.U64(&premise_size);
    if (!f.ok() || premise_size > 64) {
      return Status::InvalidArgument("corrupt premise size");
    }
    for (uint64_t j = 0; j < premise_size; ++j) {
      int64_t id = 0;
      f.I64(&id);
      if (id < 0 || static_cast<uint64_t>(id) >= num_regions) {
        return Status::InvalidArgument("premise region id out of range");
      }
      // The model keeps a premise only as key bits, which decode back in
      // ascending order; any other order could not be saved back as read.
      if (!p.premise.empty() && id <= p.premise.back()) {
        return Status::InvalidArgument("premise region ids not ascending");
      }
      p.premise.push_back(static_cast<int>(id));
    }
    int64_t consequence = 0;
    f.I64(&consequence);
    if (consequence < 0 || static_cast<uint64_t>(consequence) >= num_regions) {
      return Status::InvalidArgument("consequence region id out of range");
    }
    p.consequence = static_cast<int>(consequence);
    f.F64(&p.confidence);
    ReadNarrow(&f, &p.support);
    if (!f.ok()) {
      return Status::InvalidArgument("truncated pattern record");
    }
    patterns.push_back(std::move(p));
  }

  uint64_t num_subs = 0;
  uint64_t builder_bytes = 0;
  f.U64(&num_subs);
  f.U64(&builder_bytes);
  if (!f.ok()) {
    return Status::InvalidArgument("truncated model file: " + path);
  }

  // The serving index loads straight from the stored arena — no bulk
  // load. Parse validates structure and the section CRC (DataLoss on
  // damage, so the store layer quarantines the file).
  const size_t section_offset = sizeof(kMagic) + f.pos();
  size_t section_consumed = 0;
  StatusOr<FrozenTpt> frozen = FrozenTpt::Parse(
      content.data() + section_offset, body_size - section_offset,
      &section_consumed);
  if (!frozen.ok()) return frozen.status().Annotate("model " + path);
  if (section_offset + section_consumed != body_size) {
    return Status::DataLoss("trailing garbage after frozen TPT section: " +
                            path);
  }

  // Cross-check the arena's leaf payloads against the re-encoded
  // pattern set: every pattern indexed exactly once, with the exact key,
  // confidence and consequence the miner produced. A section that
  // passes its CRC but disagrees with the patterns is corruption, not a
  // servable index.
  KeyTables tables = KeyTables::Build(regions, patterns);
  if (frozen->size() != patterns.size()) {
    return Status::DataLoss("frozen TPT pattern count mismatch: " + path);
  }
  if (!frozen->empty() &&
      (frozen->premise_bits() != tables.premise_key_length() ||
       frozen->consequence_bits() != tables.consequence_key_length())) {
    return Status::DataLoss("frozen TPT key widths disagree with tables: " +
                            path);
  }
  std::vector<uint8_t> indexed_once(patterns.size(), 0);
  for (const FrozenLeaf& entry : frozen->patterns()) {
    if (entry.pattern_id < 0 ||
        static_cast<size_t>(entry.pattern_id) >= patterns.size() ||
        indexed_once[static_cast<size_t>(entry.pattern_id)] != 0) {
      return Status::DataLoss("frozen TPT leaf payload ids corrupt: " + path);
    }
    indexed_once[static_cast<size_t>(entry.pattern_id)] = 1;
    const TrajectoryPattern& p =
        patterns[static_cast<size_t>(entry.pattern_id)];
    // The leaf's key exists only as arena words; the widths agree
    // (checked above), so they compare word for word with the re-encoded
    // key.
    const PatternKey key = tables.EncodePattern(p, regions);
    const auto arena_holds = [](const DynamicBitset& bits,
                                const uint64_t* words) {
      return std::equal(bits.words(), bits.words() + bits.num_words(), words);
    };
    if (entry.confidence != p.confidence ||
        entry.consequence_region != p.consequence ||
        !arena_holds(key.premise(), frozen->PremiseWords(entry)) ||
        !arena_holds(key.consequence(), frozen->ConsequenceWords(entry))) {
      return Status::DataLoss("frozen TPT disagrees with pattern set: " +
                              path);
    }
  }

  // The arena holds every rule; only the supports are kept beside it.
  std::vector<int> supports;
  supports.reserve(patterns.size());
  for (const TrajectoryPattern& p : patterns) supports.push_back(p.support);
  auto predictor = std::unique_ptr<HybridPredictor>(
      new HybridPredictor(options, std::move(regions), std::move(supports),
                          std::move(tables), std::move(*frozen)));
  predictor->summary_.num_sub_trajectories =
      static_cast<size_t>(num_subs);
  predictor->summary_.num_frequent_regions =
      predictor->regions_.NumRegions();
  predictor->summary_.num_patterns = predictor->tpt_.size();
  predictor->summary_.tpt_memory_bytes =
      static_cast<size_t>(builder_bytes);
  predictor->summary_.tpt_frozen_bytes = predictor->tpt_.MemoryBytes();
  predictor->summary_.tpt_height = predictor->tpt_.Height();
  return predictor;
}

}  // namespace hpm
