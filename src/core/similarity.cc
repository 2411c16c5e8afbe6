#include "core/similarity.h"

#include <bit>
#include <cmath>

#include "bitset/word_ops.h"
#include "common/status.h"

namespace hpm {

const char* WeightFunctionName(WeightFunction fn) {
  switch (fn) {
    case WeightFunction::kLinear:
      return "linear";
    case WeightFunction::kQuadratic:
      return "quadratic";
    case WeightFunction::kExponential:
      return "exponential";
    case WeightFunction::kFactorial:
      return "factorial";
  }
  return "unknown";
}

namespace {

double RawWeight(WeightFunction fn, int i) {
  switch (fn) {
    case WeightFunction::kLinear:
      return static_cast<double>(i);
    case WeightFunction::kQuadratic:
      return static_cast<double>(i) * static_cast<double>(i);
    case WeightFunction::kExponential:
      return std::exp2(static_cast<double>(i));
    case WeightFunction::kFactorial:
      return std::tgamma(static_cast<double>(i) + 1.0);
  }
  return 0.0;
}

}  // namespace

double PositionWeight(WeightFunction fn, int i, int size) {
  HPM_CHECK(i >= 1 && i <= size);
  double total = 0.0;
  for (int j = 1; j <= size; ++j) total += RawWeight(fn, j);
  return RawWeight(fn, i) / total;
}

double PremiseSimilarity(const DynamicBitset& rk, const DynamicBitset& rkq,
                         WeightFunction fn) {
  HPM_CHECK(rk.size() == rkq.size());
  return PremiseSimilarity(rk.words(), rkq.words(), rk.num_words(), fn);
}

double PremiseSimilarity(const uint64_t* rk, const uint64_t* rkq,
                         size_t num_words, WeightFunction fn) {
  const int size = static_cast<int>(wordops::Popcount(rk, num_words));
  if (size == 0) return 0.0;

  double total = 0.0;
  for (int j = 1; j <= size; ++j) total += RawWeight(fn, j);

  // Only rk bits also set in rkq contribute, in ascending position order.
  // A shared bit's 1-based rank i among rk's set bits is the count of rk
  // bits below it plus one.
  double similarity = 0.0;
  int below = 0;
  for (size_t w = 0; w < num_words; ++w) {
    for (uint64_t common = rk[w] & rkq[w]; common != 0;
         common &= common - 1) {
      const uint64_t lower = (common & (~common + 1)) - 1;
      const int i = below + std::popcount(rk[w] & lower) + 1;
      similarity += RawWeight(fn, i) / total;
    }
    below += std::popcount(rk[w]);
  }
  return similarity;
}

double ConsequenceSimilarity(Timestamp t, Timestamp tq, Timestamp t_eps) {
  HPM_CHECK(t_eps >= 0);
  const double distance = static_cast<double>(std::llabs(tq - t));
  const double sc = 1.0 - distance / static_cast<double>(t_eps + 1);
  return sc < 0.0 ? 0.0 : sc;
}

}  // namespace hpm
