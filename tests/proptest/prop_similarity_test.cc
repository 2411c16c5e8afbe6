// Property suite: the allocation-free premise-similarity kernel over
// packed words vs the SetBits-based formulation it replaced. Query
// scoring now reads premise words straight from the frozen TPT arena, so
// the kernel must reproduce the old Sr bit for bit — the same weights,
// added in the same order — for every weight function, for empty keys,
// and for premise keys of one to four words (fig11 indexes 800-region
// key sets).

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr WeightFunction kAllWeights[] = {
    WeightFunction::kLinear, WeightFunction::kQuadratic,
    WeightFunction::kExponential, WeightFunction::kFactorial};

/// A pattern premise key and a query premise key of one width.
struct PremiseCase {
  DynamicBitset rk;
  DynamicBitset rkq;
};

/// The pre-kernel formulation: list rk's set bits, then add the weight
/// f(i) / sum_j f(j) of every i-th bit that the query also has, in
/// ascending i.
double SetBitsSimilarity(const DynamicBitset& rk, const DynamicBitset& rkq,
                         WeightFunction fn) {
  const std::vector<size_t> bits = rk.SetBits();
  if (bits.empty()) return 0.0;
  const int size = static_cast<int>(bits.size());
  double similarity = 0.0;
  for (int i = 1; i <= size; ++i) {
    if (rkq.Test(bits[static_cast<size_t>(i - 1)])) {
      similarity += PositionWeight(fn, i, size);
    }
  }
  return similarity;
}

PremiseCase GenCase(Random& rng) {
  PremiseCase c;
  // Widths 0..256: empty keys, and one to four words with sizes that
  // straddle every word boundary.
  const size_t width = rng.Uniform(257);
  c.rk = proptest::RandomBitset(rng, width, rng.UniformDouble(0.0, 0.6));
  c.rkq = proptest::RandomBitset(rng, width, rng.UniformDouble(0.0, 1.0));
  // Now and then the query is the pattern itself (Sr = 1 up to rounding)
  // or shares nothing with it.
  const uint64_t shape = rng.Uniform(8);
  if (shape == 0) c.rkq = c.rk;
  if (shape == 1) {
    c.rkq = c.rk;
    for (size_t i = 0; i < width; ++i) c.rkq.Set(i, !c.rk.Test(i));
  }
  return c;
}

std::string CheckKernel(const PremiseCase& input) {
  for (const WeightFunction fn : kAllWeights) {
    const double expected = SetBitsSimilarity(input.rk, input.rkq, fn);
    const double words =
        PremiseSimilarity(input.rk.words(), input.rkq.words(),
                          input.rk.num_words(), fn);
    const double bitsets = PremiseSimilarity(input.rk, input.rkq, fn);
    const uint64_t want = std::bit_cast<uint64_t>(expected);
    if (std::bit_cast<uint64_t>(words) != want ||
        std::bit_cast<uint64_t>(bitsets) != want) {
      return std::string(WeightFunctionName(fn)) + " Sr differs: kernel " +
             std::to_string(words) + ", bitset overload " +
             std::to_string(bitsets) + ", SetBits formulation " +
             std::to_string(expected) + "\n  rk  = " + input.rk.ToString() +
             "\n  rkq = " + input.rkq.ToString();
    }
  }
  return "";
}

TEST(PropSimilarityTest, WordKernelMatchesSetBitsFormulationBitForBit) {
  Property<PremiseCase> property("premise-similarity-kernel", GenCase,
                                 CheckKernel);
  RunnerOptions options;
  options.num_cases = 400;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropSimilarityTest, EmptyKeysScoreZero) {
  for (const WeightFunction fn : kAllWeights) {
    const DynamicBitset none;
    EXPECT_EQ(PremiseSimilarity(none.words(), none.words(), 0, fn), 0.0);
    for (const size_t width : {1u, 64u, 65u, 256u}) {
      const DynamicBitset zero(width);
      DynamicBitset all(width);
      for (size_t i = 0; i < width; ++i) all.Set(i);
      EXPECT_EQ(PremiseSimilarity(zero.words(), all.words(),
                                  zero.num_words(), fn),
                0.0);
      EXPECT_EQ(PremiseSimilarity(all.words(), zero.words(), all.num_words(),
                                  fn),
                0.0);
    }
  }
}

}  // namespace
}  // namespace hpm
