// Unit tests for the frozen TPT arena: freeze/search basics, the "FTPT"
// wire section, and above all the parser's handling of corrupt bytes —
// every malformed section must come back as a clean DataLoss (which the
// store layer turns into quarantine + fallback), never a crash, hang, or
// count-driven over-allocation.
//
// Section layout (offsets used by the surgical edits below):
//   0  "FTPT"            16 num_nodes u32
//   4  version u32       20 num_entries u32
//   8  premise_bits u32  24 num_patterns u32
//   12 consequence_bits  28 nodes (3 x u32 each) | targets | key words
//                           | payloads | crc32 over everything before it

#include "tpt/frozen_tpt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "tpt/tpt_tree.h"

namespace hpm {
namespace {

constexpr size_t kVersionOffset = 4;
constexpr size_t kPremiseBitsOffset = 8;
constexpr size_t kNumNodesOffset = 16;
constexpr size_t kNumEntriesOffset = 20;
constexpr size_t kNumPatternsOffset = 24;
constexpr size_t kNodesOffset = 28;

PatternKey RandomKey(Random* rng, size_t premise_len, size_t cons_len,
                     double premise_density = 0.15) {
  PatternKey key(premise_len, cons_len);
  key.mutable_premise().Set(rng->Uniform(premise_len));
  for (size_t i = 0; i < premise_len; ++i) {
    if (rng->Bernoulli(premise_density)) key.mutable_premise().Set(i);
  }
  key.mutable_consequence().Set(rng->Uniform(cons_len));
  return key;
}

IndexedPattern MakePattern(PatternKey key, int id) {
  IndexedPattern p;
  p.key = std::move(key);
  p.confidence = 0.25 + 0.01 * static_cast<double>(id % 50);
  p.consequence_region = id % 7;
  p.pattern_id = id;
  return p;
}

/// `count` random patterns over 40 premise / 10 consequence bits;
/// pattern i has pattern_id i.
std::vector<IndexedPattern> BuildPatterns(int count, uint64_t seed) {
  std::vector<IndexedPattern> patterns;
  Random rng(seed);
  patterns.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    patterns.push_back(MakePattern(RandomKey(&rng, 40, 10), i));
  }
  return patterns;
}

/// A multi-level tree (small node capacity) over `count` random patterns.
TptTree BuildTree(int count, uint64_t seed) {
  TptTree::Options options;
  options.max_node_entries = 5;
  options.min_node_entries = 2;
  StatusOr<TptTree> tree =
      TptTree::BulkLoad(BuildPatterns(count, seed), options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

std::string Wire(const FrozenTpt& frozen) {
  std::string out;
  frozen.AppendTo(&out);
  return out;
}

uint32_t ReadU32At(const std::string& s, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, s.data() + offset, sizeof(v));
  return v;
}

void WriteU32At(std::string* s, size_t offset, uint32_t v) {
  std::memcpy(s->data() + offset, &v, sizeof(v));
}

/// Recomputes the section's trailing CRC after a surgical edit, so the
/// corruption reaches the validator it targets instead of the checksum.
void RestampSectionCrc(std::string* s) {
  const uint32_t crc = Crc32(s->data(), s->size() - 4);
  std::memcpy(s->data() + s->size() - 4, &crc, sizeof(crc));
}

Status ParseStatus(const std::string& wire) {
  size_t consumed = 0;
  return FrozenTpt::Parse(wire.data(), wire.size(), &consumed).status();
}

TEST(FrozenTptTest, EmptyTreeFreezesAndRoundTripsEmpty) {
  TptTree tree;
  const FrozenTpt frozen = FrozenTpt::Freeze(tree);
  EXPECT_TRUE(frozen.empty());
  EXPECT_EQ(frozen.Height(), 0);
  EXPECT_TRUE(frozen.CheckInvariants().ok());

  PatternKey q(8, 2);
  q.mutable_premise().Set(0);
  q.mutable_consequence().Set(0);
  std::vector<const FrozenLeaf*> hits;
  frozen.SearchInto(q, SearchMode::kPremiseAndConsequence, &hits);
  EXPECT_TRUE(hits.empty());

  const std::string wire = Wire(frozen);
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(consumed, wire.size());
  EXPECT_TRUE(reparsed->empty());
}

/// Every leaf payload of `frozen` carries exactly the key, confidence and
/// consequence region of the input pattern with its id, its key read
/// back through the arena, and every pattern id appears exactly once.
void ExpectPayloadsMatch(const FrozenTpt& frozen,
                         const std::vector<IndexedPattern>& patterns) {
  ASSERT_EQ(frozen.size(), patterns.size());
  std::vector<bool> seen(patterns.size(), false);
  for (const FrozenLeaf& leaf : frozen.patterns()) {
    ASSERT_GE(leaf.pattern_id, 0);
    ASSERT_LT(static_cast<size_t>(leaf.pattern_id), seen.size());
    EXPECT_FALSE(seen[static_cast<size_t>(leaf.pattern_id)]);
    seen[static_cast<size_t>(leaf.pattern_id)] = true;
    const IndexedPattern& p = patterns[static_cast<size_t>(leaf.pattern_id)];
    EXPECT_EQ(leaf.confidence, p.confidence);
    EXPECT_EQ(leaf.consequence_region, p.consequence_region);
    // The key is its widths plus the raw arena words query scoring reads.
    EXPECT_EQ(p.key.premise().size(), frozen.premise_bits());
    EXPECT_EQ(p.key.consequence().size(), frozen.consequence_bits());
    EXPECT_TRUE(std::equal(p.key.premise().words(),
                           p.key.premise().words() + frozen.premise_words(),
                           frozen.PremiseWords(leaf)))
        << "pattern " << leaf.pattern_id;
    EXPECT_TRUE(std::equal(
        p.key.consequence().words(),
        p.key.consequence().words() + frozen.consequence_words(),
        frozen.ConsequenceWords(leaf)))
        << "pattern " << leaf.pattern_id;
  }
}

TEST(FrozenTptTest, FreezeKeepsPatternsAndAccountsMemory) {
  const TptTree tree = BuildTree(80, 11);
  const FrozenTpt frozen = FrozenTpt::Freeze(tree);
  EXPECT_EQ(frozen.size(), tree.size());
  EXPECT_EQ(frozen.Height(), tree.Height());
  EXPECT_EQ(frozen.premise_bits(), 40u);
  EXPECT_EQ(frozen.consequence_bits(), 10u);
  EXPECT_TRUE(frozen.CheckInvariants().ok());
  // The arena must be accounted for: more than the bare struct, and the
  // key blocks dominate a pointer-free layout.
  EXPECT_GT(frozen.MemoryBytes(), sizeof(FrozenTpt));
  const std::vector<IndexedPattern> patterns = BuildPatterns(80, 11);
  ExpectPayloadsMatch(frozen, patterns);
  // Parse rebuilds each payload's arena entry index from the topology.
  const std::string wire = Wire(frozen);
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->MemoryBytes(), frozen.MemoryBytes());
  ExpectPayloadsMatch(*reparsed, patterns);
}

TEST(FrozenTptTest, ParseIgnoresTrailingBytes) {
  // The section is embedded mid-file: Parse must consume exactly its own
  // bytes and leave whatever follows alone.
  const FrozenTpt frozen = FrozenTpt::Freeze(BuildTree(30, 12));
  std::string wire = Wire(frozen);
  const size_t section_size = wire.size();
  wire.append("trailing model bytes");
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(consumed, section_size);
  EXPECT_EQ(reparsed->size(), frozen.size());
}

TEST(FrozenTptTest, ParseRejectsBadMagic) {
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(20, 13)));
  wire[0] ^= 0x20;
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("bad frozen TPT section magic"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsUnsupportedVersion) {
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(20, 14)));
  WriteU32At(&wire, kVersionOffset, 99);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("unsupported frozen TPT section version"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsImplausibleKeyWidth) {
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(20, 15)));
  WriteU32At(&wire, kPremiseBitsOffset, 1u << 23);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("implausible frozen TPT key width"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsCorruptNodeCountBeforeAllocating) {
  // A billion-node count must fail the up-front body-size check rather
  // than drive a giant allocation.
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(20, 16)));
  WriteU32At(&wire, kNumNodesOffset, 1u << 30);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated frozen TPT section body"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsInconsistentCounts) {
  // Zero nodes but nonzero entries can never describe a real tree.
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(20, 17)));
  WriteU32At(&wire, kNumNodesOffset, 0);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("inconsistent frozen TPT counts"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsPayloadCountExceedingEntries) {
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(20, 18)));
  const uint32_t num_patterns = ReadU32At(wire, kNumPatternsOffset);
  ASSERT_GT(num_patterns, 1u);
  // Shrinking the entry count below the payload count keeps the declared
  // body within the buffer, so the count check itself must fire.
  WriteU32At(&wire, kNumEntriesOffset, num_patterns - 1);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT payload count exceeds entries"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsBitRotViaSectionChecksum) {
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(40, 19)));
  // Flip one byte in the middle of the arena, checksum left stale.
  wire[wire.size() / 2] ^= 0x5a;
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT section checksum mismatch"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsZeroEntryNode) {
  std::string wire = Wire(FrozenTpt::Freeze(BuildTree(40, 20)));
  WriteU32At(&wire, kNodesOffset + 4, 0);  // Root's num_entries.
  RestampSectionCrc(&wire);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT node has zero entries"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsBackwardChildIndex) {
  const TptTree tree = BuildTree(60, 21);
  ASSERT_GT(tree.Height(), 1) << "need an internal root for this edit";
  std::string wire = Wire(FrozenTpt::Freeze(tree));
  const uint32_t num_nodes = ReadU32At(wire, kNumNodesOffset);
  // The root's first child pointer, redirected at the root itself: child
  // indices must be strictly forward, so cycles are impossible.
  const size_t targets_offset = kNodesOffset + 12 * num_nodes;
  WriteU32At(&wire, targets_offset, 0);
  RestampSectionCrc(&wire);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("frozen TPT child index out of range"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseRejectsDirtyTailBits) {
  const TptTree tree = BuildTree(40, 22);
  std::string wire = Wire(FrozenTpt::Freeze(tree));
  const uint32_t num_nodes = ReadU32At(wire, kNumNodesOffset);
  const uint32_t num_entries = ReadU32At(wire, kNumEntriesOffset);
  // First entry's consequence word: set a bit beyond the declared
  // 10-bit width. FromWords asserts the zero-tail invariant, so the
  // parser must reject this before building any bitset.
  const size_t key_words_offset =
      kNodesOffset + 12 * num_nodes + 4 * num_entries;
  wire[key_words_offset + 7] =
      static_cast<char>(wire[key_words_offset + 7] | 0x80);
  RestampSectionCrc(&wire);
  const Status status = ParseStatus(wire);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("bits beyond declared width"),
            std::string::npos);
}

TEST(FrozenTptTest, ParseNeverCrashesOnAnyTruncation) {
  // Every strict prefix of a valid section must fail cleanly — the
  // bounds-checked reader and the body-size precheck leave no length at
  // which a read can run off the buffer.
  const std::string wire = Wire(FrozenTpt::Freeze(BuildTree(25, 23)));
  for (size_t len = 0; len < wire.size(); ++len) {
    size_t consumed = 0;
    StatusOr<FrozenTpt> parsed = FrozenTpt::Parse(wire.data(), len, &consumed);
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
        << "prefix of " << len << " bytes";
  }
}

}  // namespace
}  // namespace hpm
