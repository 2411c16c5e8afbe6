// FrozenTpt: the immutable, arena-backed generation layout of the
// Trajectory Pattern Tree (paper §V), built once from a finished mutable
// TptTree and searched for the rest of that model generation's life.
//
// Why a second representation: every published HybridPredictor is
// immutable after the atomic snapshot swap, yet the mutable tree it
// carried was pointer-chasing — one heap node per tree node, two heap
// word arrays per entry key. The frozen form stores
//
//   nodes_        all tree nodes, DFS preorder, 32-bit entry offsets
//                 instead of child pointers
//   entry_target_ per entry: child node index (internal) or leaf payload
//                 index (leaf), 32-bit
//   key_words_    every entry's signature packed into ONE contiguous
//                 64-byte-aligned uint64 arena: entry e occupies
//                 [e*stride, (e+1)*stride) with its consequence words
//                 first, then its premise words. This is the only copy
//                 of any key, leaf keys included.
//   patterns_     lean leaf payloads (FrozenLeaf: confidence,
//                 consequence region, pattern id, arena entry index) in
//                 leaf-entry order — SearchInto returns pointers into
//                 this array, and a hit's key words are read back from
//                 the arena through its entry index
//
// so a node's entries are one contiguous block run and the
// Intersect/Contain hot loop is a branch-light word-wise AND+popcount
// scan (wordops primitives — the same functions the mutable PatternKey
// predicates call) with prefetch of the upcoming blocks. Query scoring
// (premise similarity, BQP's consequence time) reads the hit's block —
// just scanned, so still in cache — through PremiseWords /
// ConsequenceWords; no PatternKey is ever materialised for a hit.
//
// SearchInto is one iterative depth-first loop over an explicit
// kMaxDepth-frame stack: it visits nodes, tests entries, and emits hits
// in exactly the mutable tree's order; prop_tpt_frozen_test proves the
// results (ids, confidences, keys, order) and the TptSearchStats pruning
// counters bit-identical on randomized pattern sets in both SearchModes.
//
// The arena has a compact wire form (AppendTo/Parse, CRC-footed, encoded
// with common/codec.h) so a persisted model reloads by validating bytes
// instead of replaying the sequential-insert build.

#ifndef HPM_TPT_FROZEN_TPT_H_
#define HPM_TPT_FROZEN_TPT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "tpt/tpt_tree.h"

namespace hpm {

/// A 64-byte-aligned, heap-allocated uint64 array: the signature block
/// arena. Move-only (the frozen tree itself is move-only).
class AlignedWordArena {
 public:
  AlignedWordArena() = default;

  /// Allocates (zero-filled) room for `num_words` words.
  explicit AlignedWordArena(size_t num_words);

  AlignedWordArena(AlignedWordArena&&) noexcept = default;
  AlignedWordArena& operator=(AlignedWordArena&&) noexcept = default;
  AlignedWordArena(const AlignedWordArena&) = delete;
  AlignedWordArena& operator=(const AlignedWordArena&) = delete;

  uint64_t* data() { return words_.get(); }
  const uint64_t* data() const { return words_.get(); }
  size_t size() const { return size_; }

  /// Bytes actually allocated (size rounded up to the 64-byte line).
  size_t AllocatedBytes() const;

 private:
  struct FreeDeleter {
    void operator()(uint64_t* p) const;
  };
  std::unique_ptr<uint64_t[], FreeDeleter> words_;
  size_t size_ = 0;
};

/// A frozen leaf entry's payload. The key is not copied here: it lives
/// only in the arena block at `entry` (see FrozenTpt::PremiseWords and
/// ConsequenceWords).
struct FrozenLeaf {
  /// Rule confidence c.
  double confidence = 0.0;

  /// Region id of the consequence (the paper's region key pointer p).
  int consequence_region = 0;

  /// Index of the pattern in the miner's output vector. Ids are dense
  /// (0..size()-1), so HybridPredictor::Patterns() decodes the leaves
  /// back into that vector's order.
  int pattern_id = 0;

  /// Arena entry index of this leaf's key block.
  uint32_t entry = 0;
};

/// The frozen, scannable TPT generation. Default-constructed = empty
/// (matches an untrained / zero-pattern tree: every search returns
/// nothing and touches no node).
class FrozenTpt {
 public:
  FrozenTpt() = default;

  FrozenTpt(FrozenTpt&&) noexcept = default;
  FrozenTpt& operator=(FrozenTpt&&) noexcept = default;
  FrozenTpt(const FrozenTpt&) = delete;
  FrozenTpt& operator=(const FrozenTpt&) = delete;

  /// Emits the arena layout of a finished builder tree. The tree is only
  /// read; the frozen copy shares nothing with it.
  static FrozenTpt Freeze(const TptTree& tree);

  /// Depth bound: Parse rejects deeper topologies and SearchInto's
  /// fixed frame stack assumes it (a sane tree is logarithmic — 64
  /// levels would need ~2^64 patterns).
  static constexpr int kMaxDepth = 64;

  /// All leaf entries matching `query` under `mode`, written into a
  /// caller-owned vector (cleared first) in the mutable tree's traversal
  /// order. Pointers remain valid for the lifetime of this FrozenTpt.
  /// `stats`, when given, accumulates — the same contract as
  /// TptTree::SearchInto.
  void SearchInto(const PatternKey& query, SearchMode mode,
                  std::vector<const FrozenLeaf*>* out,
                  TptSearchStats* stats = nullptr) const;

  /// Number of indexed patterns.
  size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }

  /// Tree height (leaf = 1, empty = 0), carried over from the builder.
  int Height() const { return height_; }

  size_t premise_bits() const { return premise_bits_; }
  size_t consequence_bits() const { return consequence_bits_; }

  /// Words per packed premise / consequence part of a key block.
  size_t premise_words() const { return premise_words_; }
  size_t consequence_words() const { return consequence_words_; }

  /// Leaf payloads in leaf-entry (DFS) order.
  const std::vector<FrozenLeaf>& patterns() const { return patterns_; }

  /// The arena words of a leaf's key: premise_words() premise words and
  /// consequence_words() consequence words, zero tail bits. `leaf` must
  /// be one of this tree's payloads; the pointers live as long as it.
  const uint64_t* PremiseWords(const FrozenLeaf& leaf) const {
    return key_words_.data() + leaf.entry * Stride() + consequence_words_;
  }
  const uint64_t* ConsequenceWords(const FrozenLeaf& leaf) const {
    return key_words_.data() + leaf.entry * Stride();
  }

  /// Bytes held by the arena, topology arrays and payloads — the
  /// `tpt.frozen_bytes` metric, comparable against the builder tree's
  /// MemoryBytes(). Keys are counted once, in the arena.
  size_t MemoryBytes() const;

  /// Structural self-check for tests: runs the same topology validation
  /// Parse applies to untrusted bytes (entry-run contiguity, payload
  /// sequencing, forward-only child references, uniform leaf depth,
  /// zero tail bits).
  Status CheckInvariants() const;

  /// ---- Wire form ------------------------------------------------------
  /// Appends the self-delimiting serialized arena to `out`: a "FTPT"
  /// header, the topology and payload arrays, the packed key words, and
  /// a trailing CRC32 over the whole section.
  void AppendTo(std::string* out) const;

  /// Parses a section written by AppendTo starting at `data`. On success
  /// `*consumed` is the section's byte length. Structural damage —
  /// truncation, corrupt counts, dangling child/payload indices, dirty
  /// tail bits, a CRC mismatch — returns DataLoss without crashing, so
  /// callers can quarantine the source file and rebuild from patterns.
  static StatusOr<FrozenTpt> Parse(const char* data, size_t size,
                                   size_t* consumed);

 private:
  struct NodeRef {
    /// First entry in the shared entry arrays; this node's entries are
    /// [first_entry, first_entry + num_entries).
    uint32_t first_entry = 0;
    uint32_t num_entries = 0;
    uint32_t is_leaf = 0;
  };

  /// Words per packed key block (consequence words + premise words).
  size_t Stride() const { return consequence_words_ + premise_words_; }

  /// Validates a parsed topology (see Parse); factored out so tests can
  /// hit each rejection path.
  static Status ValidateTopology(const std::vector<NodeRef>& nodes,
                                 const std::vector<uint32_t>& targets,
                                 size_t num_patterns, int* height);

  std::vector<NodeRef> nodes_;
  std::vector<uint32_t> entry_target_;
  AlignedWordArena key_words_;
  std::vector<FrozenLeaf> patterns_;
  size_t premise_bits_ = 0;
  size_t consequence_bits_ = 0;
  uint32_t premise_words_ = 0;
  uint32_t consequence_words_ = 0;
  int height_ = 0;
};

}  // namespace hpm

#endif  // HPM_TPT_FROZEN_TPT_H_
