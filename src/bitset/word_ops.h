// Word-view primitives: the branch-light kernels every signature
// predicate in the system reduces to.
//
// A "word view" is a pointer to packed 64-bit words plus a word count —
// either a DynamicBitset's storage or one entry's block inside the
// FrozenTpt key arena. Both the mutable TPT path (via DynamicBitset /
// PatternKey) and the frozen arena scan call these same functions, so
// the Intersect/Contain semantics cannot drift between the two layouts.
//
// The loops accumulate over the whole run instead of early-exiting per
// word: for the short runs pattern keys produce (1–16 words) the
// accumulate form compiles to straight-line vectorizable code, and it is
// what the frozen scan relies on for throughput.

#ifndef HPM_BITSET_WORD_OPS_H_
#define HPM_BITSET_WORD_OPS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hpm::wordops {

/// True when the two runs share at least one set bit — the kernel under
/// DynamicBitset::AnyCommon and both PatternKey Intersect flavours.
inline bool AnyCommon(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) acc |= a[i] & b[i];
  return acc != 0;
}

/// True when every bit set in `b` is also set in `a` — the kernel under
/// DynamicBitset::Contains and PatternKey::ContainsKey.
inline bool Contains(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t missing = 0;
  for (size_t i = 0; i < n; ++i) missing |= b[i] & ~a[i];
  return missing == 0;
}

/// Number of set bits across the run (the paper's Size).
inline size_t Popcount(const uint64_t* a, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(a[i]));
  }
  return total;
}

/// Position of the highest set bit in the run, or -1 when none is set —
/// the kernel under DynamicBitset::HighestSetBit and BQP's consequence
/// time lookup on a frozen arena block.
inline int HighestSetBit(const uint64_t* a, size_t n) {
  for (size_t i = n; i-- > 0;) {
    if (a[i] != 0) {
      return static_cast<int>(i * 64 + 63 -
                              static_cast<size_t>(std::countl_zero(a[i])));
    }
  }
  return -1;
}

/// Number of bits set in `a` but not in `b` (the paper's Difference).
inline size_t DifferenceCount(const uint64_t* a, const uint64_t* b,
                              size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(a[i] & ~b[i]));
  }
  return total;
}

}  // namespace hpm::wordops

#endif  // HPM_BITSET_WORD_OPS_H_
