#include "tpt/frozen_tpt.h"

#include <array>
#include <cstdlib>
#include <cstring>

#include "bitset/word_ops.h"
#include "common/codec.h"
#include "tpt/tpt_node.h"

namespace hpm {

namespace {

/// Wire-format constants for the "FTPT" section (see AppendTo).
constexpr char kSectionMagic[4] = {'F', 'T', 'P', 'T'};
constexpr uint32_t kSectionVersion = 1;

/// Sanity bound on key widths: wider than any region-grid encoding this
/// system can produce, small enough that a corrupt header cannot make us
/// allocate gigabytes.
constexpr uint32_t kMaxKeyBits = 1u << 22;

/// Uniform leaf depth in a sane tree is logarithmic in pattern count; a
/// parsed topology deeper than this is corrupt (and would otherwise
/// overflow SearchInto's fixed frame stack).
constexpr int kMaxHeight = FrozenTpt::kMaxDepth;

size_t WordsForBits(size_t bits) { return (bits + 63) / 64; }

/// True when every bit of `words` beyond `bits` is zero — the
/// DynamicBitset tail invariant, which FromWords asserts.
bool TailBitsClear(const uint64_t* words, size_t num_words, size_t bits) {
  if (num_words == 0) return true;
  const size_t rem = bits % 64;
  if (rem == 0) return true;
  return (words[num_words - 1] >> rem) == 0;
}

void CountSubtree(const TptTree::Node* node, size_t* num_nodes,
                  size_t* num_entries) {
  ++*num_nodes;
  *num_entries += static_cast<size_t>(node->NumEntries());
  if (node->is_leaf) return;
  for (const auto& child : node->children) {
    CountSubtree(child.get(), num_nodes, num_entries);
  }
}

}  // namespace

void AlignedWordArena::FreeDeleter::operator()(uint64_t* p) const {
  std::free(p);
}

AlignedWordArena::AlignedWordArena(size_t num_words) : size_(num_words) {
  if (num_words == 0) return;
  // aligned_alloc requires the size to be a multiple of the alignment;
  // the padding also lets the scan prefetch whole lines safely.
  const size_t bytes = (num_words * sizeof(uint64_t) + 63) / 64 * 64;
  void* p = std::aligned_alloc(64, bytes);
  HPM_CHECK(p != nullptr);
  std::memset(p, 0, bytes);
  words_.reset(static_cast<uint64_t*>(p));
}

size_t AlignedWordArena::AllocatedBytes() const {
  return size_ == 0 ? 0 : (size_ * sizeof(uint64_t) + 63) / 64 * 64;
}

FrozenTpt FrozenTpt::Freeze(const TptTree& tree) {
  FrozenTpt frozen;
  if (tree.empty()) return frozen;

  const TptTree::Node* root = tree.root_.get();
  const PatternKey& first = root->EntryKey(0);
  frozen.premise_bits_ = first.premise().size();
  frozen.consequence_bits_ = first.consequence().size();
  frozen.premise_words_ =
      static_cast<uint32_t>(first.premise().num_words());
  frozen.consequence_words_ =
      static_cast<uint32_t>(first.consequence().num_words());
  frozen.height_ = tree.Height();

  size_t num_nodes = 0, num_entries = 0;
  CountSubtree(root, &num_nodes, &num_entries);
  frozen.nodes_.reserve(num_nodes);
  frozen.entry_target_.resize(num_entries);
  frozen.key_words_ = AlignedWordArena(num_entries * frozen.Stride());
  frozen.patterns_.reserve(tree.size());

  // DFS preorder, children in entry order — the exact order SearchNode
  // visits, so frozen hits come out in the mutable tree's order.
  size_t entry_cursor = 0;
  const auto emit = [&](const auto& self,
                        const TptTree::Node* node) -> uint32_t {
    const uint32_t index = static_cast<uint32_t>(frozen.nodes_.size());
    const uint32_t n = static_cast<uint32_t>(node->NumEntries());
    const uint32_t first_entry = static_cast<uint32_t>(entry_cursor);
    frozen.nodes_.push_back(
        NodeRef{first_entry, n, node->is_leaf ? 1u : 0u});
    entry_cursor += n;

    const size_t stride = frozen.Stride();
    for (uint32_t i = 0; i < n; ++i) {
      const PatternKey& key = node->EntryKey(static_cast<int>(i));
      uint64_t* block =
          frozen.key_words_.data() + (first_entry + i) * stride;
      std::memcpy(block, key.consequence().words(),
                  frozen.consequence_words_ * sizeof(uint64_t));
      std::memcpy(block + frozen.consequence_words_, key.premise().words(),
                  frozen.premise_words_ * sizeof(uint64_t));
    }
    if (node->is_leaf) {
      for (uint32_t i = 0; i < n; ++i) {
        const IndexedPattern& p = node->patterns[i];
        frozen.entry_target_[first_entry + i] =
            static_cast<uint32_t>(frozen.patterns_.size());
        frozen.patterns_.push_back(FrozenLeaf{p.confidence,
                                              p.consequence_region,
                                              p.pattern_id, first_entry + i});
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        frozen.entry_target_[first_entry + i] =
            self(self, node->children[i].get());
      }
    }
    return index;
  };
  emit(emit, root);
  HPM_CHECK(frozen.nodes_.size() == num_nodes);
  HPM_CHECK(entry_cursor == num_entries);
  HPM_CHECK(frozen.patterns_.size() == tree.size());
  return frozen;
}

void FrozenTpt::SearchInto(const PatternKey& query, SearchMode mode,
                           std::vector<const FrozenLeaf*>* out,
                           TptSearchStats* stats) const {
  out->clear();
  if (patterns_.empty()) return;
  HPM_CHECK(query.consequence().size() == consequence_bits_);
  if (mode == SearchMode::kPremiseAndConsequence) {
    HPM_CHECK(query.premise().size() == premise_bits_);
  }
  const uint64_t* query_consequence = query.consequence().words();
  const uint64_t* query_premise = query.premise().words();
  const size_t stride = Stride();

  // Explicit DFS stack of (node, next entry) frames; Parse bounds the
  // depth by kMaxDepth, so the fixed array never overflows.
  struct Frame {
    uint32_t node;
    uint32_t entry;
  };
  std::array<Frame, kMaxDepth> frames;
  int depth = 0;
  frames[depth++] = Frame{0, 0};
  if (stats != nullptr) ++stats->nodes_visited;
  while (depth > 0) {
    Frame& frame = frames[depth - 1];
    const NodeRef node = nodes_[frame.node];
    if (frame.entry == node.num_entries) {
      --depth;  // This subtree is exhausted; resume in the parent.
      continue;
    }
    const uint32_t i = frame.entry++;
    const uint64_t* block = key_words_.data() + (node.first_entry + i) * stride;
    if (i + 1 < node.num_entries) {
      __builtin_prefetch(block + stride);
    }
    if (stats != nullptr) ++stats->entries_tested;
    // Consequence part first (both modes prune on it), premise part only
    // when FQP still needs it — same short-circuit order as
    // PatternKey::Intersects, so entries_tested/pruning match the
    // mutable tree exactly.
    bool match =
        wordops::AnyCommon(block, query_consequence, consequence_words_);
    if (stats != nullptr) ++stats->blocks_scanned;
    if (match && mode == SearchMode::kPremiseAndConsequence) {
      match = wordops::AnyCommon(block + consequence_words_, query_premise,
                                 premise_words_);
      if (stats != nullptr) ++stats->blocks_scanned;
    }
    if (!match) continue;
    const uint32_t target = entry_target_[node.first_entry + i];
    if (node.is_leaf != 0) {
      out->push_back(&patterns_[target]);
    } else {
      HPM_CHECK(depth < kMaxDepth);
      frames[depth++] = Frame{target, 0};
      if (stats != nullptr) ++stats->nodes_visited;
    }
  }
}

size_t FrozenTpt::MemoryBytes() const {
  return sizeof(FrozenTpt) + nodes_.size() * sizeof(NodeRef) +
         entry_target_.size() * sizeof(uint32_t) +
         key_words_.AllocatedBytes() + patterns_.size() * sizeof(FrozenLeaf);
}

Status FrozenTpt::CheckInvariants() const {
  if (nodes_.empty()) {
    if (!entry_target_.empty() || !patterns_.empty()) {
      return Status::Internal("empty frozen TPT carries entries");
    }
    return Status::OK();
  }
  int height = 0;
  HPM_RETURN_IF_ERROR(
      ValidateTopology(nodes_, entry_target_, patterns_.size(), &height));
  if (height != height_) {
    return Status::Internal("frozen TPT height mismatch");
  }
  const size_t stride = Stride();
  for (size_t e = 0; e < entry_target_.size(); ++e) {
    const uint64_t* block = key_words_.data() + e * stride;
    if (!TailBitsClear(block, consequence_words_, consequence_bits_) ||
        !TailBitsClear(block + consequence_words_, premise_words_,
                       premise_bits_)) {
      return Status::Internal("frozen TPT key has dirty tail bits");
    }
  }
  return Status::OK();
}

void FrozenTpt::AppendTo(std::string* out) const {
  const size_t start = out->size();
  codec::PutBytes(out, kSectionMagic, sizeof(kSectionMagic));
  codec::PutU32(out, kSectionVersion);
  codec::PutU32(out, static_cast<uint32_t>(premise_bits_));
  codec::PutU32(out, static_cast<uint32_t>(consequence_bits_));
  codec::PutU32(out, static_cast<uint32_t>(nodes_.size()));
  codec::PutU32(out, static_cast<uint32_t>(entry_target_.size()));
  codec::PutU32(out, static_cast<uint32_t>(patterns_.size()));
  for (const NodeRef& node : nodes_) {
    codec::PutU32(out, node.first_entry);
    codec::PutU32(out, node.num_entries);
    codec::PutU32(out, node.is_leaf);
  }
  for (uint32_t target : entry_target_) codec::PutU32(out, target);
  codec::PutBytes(out, key_words_.data(),
                  key_words_.size() * sizeof(uint64_t));
  for (const FrozenLeaf& p : patterns_) {
    codec::PutF64(out, p.confidence);
    codec::PutI32(out, p.consequence_region);
    codec::PutI32(out, p.pattern_id);
  }
  codec::PutU32(out, Crc32(out->data() + start, out->size() - start));
}

Status FrozenTpt::ValidateTopology(const std::vector<NodeRef>& nodes,
                                   const std::vector<uint32_t>& targets,
                                   size_t num_patterns, int* height) {
  // Entry runs must partition the entry arrays contiguously in node
  // order, with no empty nodes (an empty tree has no nodes at all).
  size_t running = 0;
  for (const NodeRef& node : nodes) {
    if (node.is_leaf > 1) {
      return Status::DataLoss("frozen TPT node has corrupt leaf flag");
    }
    if (node.num_entries == 0) {
      return Status::DataLoss("frozen TPT node has zero entries");
    }
    if (node.first_entry != running) {
      return Status::DataLoss("frozen TPT entry runs are not contiguous");
    }
    running += node.num_entries;
  }
  if (running != targets.size()) {
    return Status::DataLoss("frozen TPT entry count mismatch");
  }

  // Leaf targets are payload indices and must appear exactly in payload
  // order; internal targets are strictly-forward child indices, each
  // non-root node referenced exactly once.
  std::vector<uint32_t> referenced_by(nodes.size(), 0);
  uint32_t next_payload = 0;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const NodeRef& node = nodes[n];
    for (uint32_t i = 0; i < node.num_entries; ++i) {
      const uint32_t target = targets[node.first_entry + i];
      if (node.is_leaf != 0) {
        if (target != next_payload) {
          return Status::DataLoss(
              "frozen TPT leaf payload indices out of sequence");
        }
        ++next_payload;
      } else {
        if (target <= n || target >= nodes.size()) {
          return Status::DataLoss("frozen TPT child index out of range");
        }
        if (referenced_by[target] != 0) {
          return Status::DataLoss(
              "frozen TPT child referenced more than once");
        }
        referenced_by[target] = 1;
      }
    }
  }
  if (next_payload != num_patterns) {
    return Status::DataLoss("frozen TPT payload count mismatch");
  }
  for (size_t n = 1; n < nodes.size(); ++n) {
    if (referenced_by[n] == 0) {
      return Status::DataLoss("frozen TPT node is unreachable");
    }
  }

  // Depths propagate in one forward pass (children always follow their
  // parent); leaves must share one depth, bounded by kMaxHeight so no
  // file can drive unbounded search recursion.
  std::vector<int> depth(nodes.size(), 0);
  depth[0] = 1;
  int leaf_depth = -1;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const NodeRef& node = nodes[n];
    if (depth[n] > kMaxHeight) {
      return Status::DataLoss("frozen TPT height exceeds bound");
    }
    if (node.is_leaf != 0) {
      if (leaf_depth == -1) {
        leaf_depth = depth[n];
      } else if (leaf_depth != depth[n]) {
        return Status::DataLoss("frozen TPT leaves at different depths");
      }
      continue;
    }
    for (uint32_t i = 0; i < node.num_entries; ++i) {
      depth[targets[node.first_entry + i]] = depth[n] + 1;
    }
  }
  *height = leaf_depth < 0 ? 0 : leaf_depth;
  return Status::OK();
}

StatusOr<FrozenTpt> FrozenTpt::Parse(const char* data, size_t size,
                                     size_t* consumed) {
  codec::Cursor reader(data, size);
  char magic[sizeof(kSectionMagic)];
  if (!reader.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kSectionMagic, sizeof(magic)) != 0) {
    return Status::DataLoss("bad frozen TPT section magic");
  }
  uint32_t version = 0;
  uint32_t premise_bits = 0, consequence_bits = 0;
  uint32_t num_nodes = 0, num_entries = 0, num_patterns = 0;
  if (!reader.U32(&version) || !reader.U32(&premise_bits) ||
      !reader.U32(&consequence_bits) || !reader.U32(&num_nodes) ||
      !reader.U32(&num_entries) || !reader.U32(&num_patterns)) {
    return Status::DataLoss("truncated frozen TPT section header");
  }
  if (version != kSectionVersion) {
    return Status::DataLoss("unsupported frozen TPT section version");
  }
  if (premise_bits > kMaxKeyBits || consequence_bits > kMaxKeyBits) {
    return Status::DataLoss("implausible frozen TPT key width");
  }

  const uint64_t premise_words = WordsForBits(premise_bits);
  const uint64_t consequence_words = WordsForBits(consequence_bits);
  const uint64_t stride = premise_words + consequence_words;

  // Size the whole body up front (64-bit math, so corrupt counts cannot
  // overflow) before allocating anything count-proportional.
  const uint64_t body_bytes = uint64_t{num_nodes} * 12 +
                              uint64_t{num_entries} * 4 +
                              uint64_t{num_entries} * stride * 8 +
                              uint64_t{num_patterns} * 16;
  if (body_bytes + sizeof(uint32_t) > reader.remaining()) {
    return Status::DataLoss("truncated frozen TPT section body");
  }
  if (num_patterns > num_entries) {
    return Status::DataLoss("frozen TPT payload count exceeds entries");
  }
  if ((num_nodes == 0) != (num_entries == 0) ||
      (num_nodes == 0 && num_patterns != 0)) {
    return Status::DataLoss("inconsistent frozen TPT counts");
  }

  std::vector<NodeRef> nodes(num_nodes);
  for (NodeRef& node : nodes) {
    HPM_CHECK(reader.U32(&node.first_entry) &&
              reader.U32(&node.num_entries) && reader.U32(&node.is_leaf));
  }
  std::vector<uint32_t> targets(num_entries);
  for (uint32_t& target : targets) {
    HPM_CHECK(reader.U32(&target));
  }
  AlignedWordArena key_words(num_entries * stride);
  HPM_CHECK(reader.Bytes(key_words.data(),
                         key_words.size() * sizeof(uint64_t)));
  std::vector<FrozenLeaf> leaves(num_patterns);
  for (FrozenLeaf& leaf : leaves) {
    HPM_CHECK(reader.F64(&leaf.confidence) &&
              reader.I32(&leaf.consequence_region) &&
              reader.I32(&leaf.pattern_id));
  }

  const size_t body_end = reader.pos();
  uint32_t stored_crc = 0;
  HPM_CHECK(reader.U32(&stored_crc));
  if (Crc32(data, body_end) != stored_crc) {
    return Status::DataLoss("frozen TPT section checksum mismatch");
  }

  FrozenTpt frozen;
  *consumed = reader.pos();
  if (num_nodes == 0) return frozen;

  int height = 0;
  HPM_RETURN_IF_ERROR(ValidateTopology(nodes, targets, num_patterns,
                                       &height));

  // Every packed part must honor the DynamicBitset zero-tail invariant
  // (FromWords and the whole-word scan both rely on it).
  for (uint64_t e = 0; e < num_entries; ++e) {
    const uint64_t* block = key_words.data() + e * stride;
    if (!TailBitsClear(block, consequence_words, consequence_bits) ||
        !TailBitsClear(block + consequence_words, premise_words,
                       premise_bits)) {
      return Status::DataLoss("frozen TPT key has bits beyond declared width");
    }
  }

  frozen.premise_bits_ = premise_bits;
  frozen.consequence_bits_ = consequence_bits;
  frozen.premise_words_ = static_cast<uint32_t>(premise_words);
  frozen.consequence_words_ = static_cast<uint32_t>(consequence_words);
  frozen.height_ = height;
  for (const NodeRef& node : nodes) {
    if (node.is_leaf == 0) continue;
    for (uint32_t i = 0; i < node.num_entries; ++i) {
      const uint32_t entry = node.first_entry + i;
      leaves[targets[entry]].entry = entry;
    }
  }
  frozen.patterns_ = std::move(leaves);
  frozen.nodes_ = std::move(nodes);
  frozen.entry_target_ = std::move(targets);
  frozen.key_words_ = std::move(key_words);
  return frozen;
}

}  // namespace hpm
