// RmfMemo: the lazily filled motion-function memo of a published view.
// Labelled `concurrency`, so the TSan leg checks the publish/acquire
// handshake and the ASan legs check that every losing fit is freed.

#include "motion/rmf_memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace hpm {
namespace {

std::vector<TimedPoint> Curve(int n) {
  std::vector<TimedPoint> track;
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    track.push_back({i, {100.0 + 7.0 * t + 0.3 * t * t, 400.0 - 2.5 * t}});
  }
  return track;
}

TEST(RmfMemoTest, FitsOnceAndAnswersLikeAFreshFit) {
  const std::vector<TimedPoint> recent = Curve(12);
  const RmfOptions options;
  RecursiveMotionFunction fresh(options);
  ASSERT_TRUE(fresh.Fit(recent).ok());

  RmfMemo memo;
  bool computed = false;
  const RecursiveMotionFunction& first =
      memo.GetOrFit(recent, options, &computed);
  EXPECT_TRUE(computed);
  const RecursiveMotionFunction& second =
      memo.GetOrFit(recent, options, &computed);
  EXPECT_FALSE(computed);
  EXPECT_EQ(&first, &second);
  for (const Timestamp tq : {12, 13, 20, 50, 400}) {
    const StatusOr<Point> want = fresh.Predict(tq);
    const StatusOr<Point> got = second.Predict(tq);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->x, want->x);
    EXPECT_EQ(got->y, want->y);
  }
}

TEST(RmfMemoTest, DegenerateWindowIsMemoisedAsAFailedFit) {
  const std::vector<TimedPoint> single = {{0, {3.0, 4.0}}};
  RmfMemo memo;
  bool computed = false;
  const RecursiveMotionFunction& model =
      memo.GetOrFit(single, RmfOptions{}, &computed);
  EXPECT_TRUE(computed);
  EXPECT_EQ(model.Predict(5).status().code(),
            StatusCode::kFailedPrecondition);
  memo.GetOrFit(single, RmfOptions{}, &computed);
  EXPECT_FALSE(computed);
}

// K readers race the first fit of fresh memos. Every reader must see the
// one published model (so the same answer, bit for bit, as a fresh fit),
// between 1 and K of them may have computed a fit, and every losing copy
// is freed (ASan's leak check fails the run otherwise).
TEST(RmfMemoTest, RacingReadersShareOnePublishedModel) {
  constexpr int kReaders = 8;
  constexpr int kRounds = 50;
  constexpr Timestamp kTq = 30;
  const std::vector<TimedPoint> recent = Curve(10);
  const RmfOptions options;
  RecursiveMotionFunction fresh(options);
  ASSERT_TRUE(fresh.Fit(recent).ok());
  const Point want = *fresh.Predict(kTq);

  for (int round = 0; round < kRounds; ++round) {
    RmfMemo memo;
    std::atomic<int> ready{0};
    std::atomic<int> computed_total{0};
    std::vector<const RecursiveMotionFunction*> seen(kReaders, nullptr);
    std::vector<Point> answers(kReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        ready.fetch_add(1);
        while (ready.load() < kReaders) {
        }
        bool computed = false;
        const RecursiveMotionFunction& model =
            memo.GetOrFit(recent, options, &computed);
        if (computed) computed_total.fetch_add(1);
        seen[static_cast<size_t>(r)] = &model;
        answers[static_cast<size_t>(r)] = *model.Predict(kTq);
      });
    }
    for (std::thread& t : readers) t.join();

    EXPECT_GE(computed_total.load(), 1);
    EXPECT_LE(computed_total.load(), kReaders);
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(seen[static_cast<size_t>(r)], seen[0]);
      EXPECT_EQ(answers[static_cast<size_t>(r)].x, want.x);
      EXPECT_EQ(answers[static_cast<size_t>(r)].y, want.y);
    }
  }
}

}  // namespace
}  // namespace hpm
