#include "bitset/dynamic_bitset.h"

#include <bit>

#include "bitset/word_ops.h"
#include "common/status.h"

namespace hpm {

namespace {
constexpr size_t kBitsPerWord = 64;

size_t WordsFor(size_t bits) {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}
}  // namespace

DynamicBitset::DynamicBitset(size_t size)
    : size_(size), words_(WordsFor(size), 0) {}

DynamicBitset DynamicBitset::FromString(const std::string& bits) {
  DynamicBitset b(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[bits.size() - 1 - i];
    HPM_CHECK(c == '0' || c == '1');
    if (c == '1') b.Set(i);
  }
  return b;
}

void DynamicBitset::Set(size_t pos, bool value) {
  HPM_CHECK(pos < size_);
  const uint64_t mask = uint64_t{1} << (pos % kBitsPerWord);
  if (value) {
    words_[pos / kBitsPerWord] |= mask;
  } else {
    words_[pos / kBitsPerWord] &= ~mask;
  }
}

bool DynamicBitset::Test(size_t pos) const {
  HPM_CHECK(pos < size_);
  return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1;
}

DynamicBitset DynamicBitset::FromWords(const uint64_t* words,
                                       size_t num_words, size_t bits) {
  HPM_CHECK(num_words == WordsFor(bits));
  DynamicBitset b(bits);
  for (size_t i = 0; i < num_words; ++i) b.words_[i] = words[i];
  // Tail bits must already be clear; FromWords trusts its caller, but the
  // invariant is cheap to assert.
  const size_t used = bits % kBitsPerWord;
  if (used != 0 && num_words > 0) {
    HPM_CHECK((b.words_.back() & ~((uint64_t{1} << used) - 1)) == 0);
  }
  return b;
}

size_t DynamicBitset::Count() const {
  return wordops::Popcount(words_.data(), words_.size());
}

int DynamicBitset::HighestSetBit() const {
  return wordops::HighestSetBit(words_.data(), words_.size());
}

std::vector<size_t> DynamicBitset::SetBits() const {
  std::vector<size_t> positions;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t w = words_[i];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      positions.push_back(i * kBitsPerWord + static_cast<size_t>(bit));
      w &= w - 1;
    }
  }
  return positions;
}

void DynamicBitset::Resize(size_t size) {
  size_ = size;
  words_.resize(WordsFor(size), 0);
  ClearUnusedBits();
}

void DynamicBitset::Reset() {
  std::fill(words_.begin(), words_.end(), uint64_t{0});
}

void DynamicBitset::ClearUnusedBits() {
  const size_t used = size_ % kBitsPerWord;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << used) - 1;
  }
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& o) {
  HPM_CHECK(size_ == o.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& o) {
  HPM_CHECK(size_ == o.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator^=(const DynamicBitset& o) {
  HPM_CHECK(size_ == o.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

bool DynamicBitset::operator==(const DynamicBitset& o) const {
  return size_ == o.size_ && words_ == o.words_;
}

bool DynamicBitset::Contains(const DynamicBitset& other) const {
  HPM_CHECK(size_ == other.size_);
  return wordops::Contains(words_.data(), other.words_.data(),
                           words_.size());
}

bool DynamicBitset::AnyCommon(const DynamicBitset& other) const {
  HPM_CHECK(size_ == other.size_);
  return wordops::AnyCommon(words_.data(), other.words_.data(),
                            words_.size());
}

size_t DynamicBitset::DifferenceCount(const DynamicBitset& other) const {
  HPM_CHECK(size_ == other.size_);
  return wordops::DifferenceCount(words_.data(), other.words_.data(),
                                  words_.size());
}

std::string DynamicBitset::ToString() const {
  std::string s(size_, '0');
  for (size_t i = 0; i < size_; ++i) {
    if (Test(i)) s[size_ - 1 - i] = '1';
  }
  return s;
}

size_t DynamicBitset::Hash() const {
  // FNV-1a over the words plus the size.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(size_);
  for (uint64_t w : words_) mix(w);
  return static_cast<size_t>(h);
}

}  // namespace hpm
