#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "wlp/support/backoff.hpp"
#include "wlp/support/cacheline.hpp"
#include "wlp/support/prng.hpp"
#include "wlp/support/stats.hpp"
#include "wlp/support/table.hpp"

namespace wlp {
namespace {

TEST(Prng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Prng, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Prng, BelowZeroBound) {
  Xoshiro256 rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Prng, RangeInclusive) {
  Xoshiro256 rng(9);
  std::set<long> seen;
  for (int i = 0; i < 5000; ++i) {
    const long v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Prng, Mix64IsStateless) { EXPECT_EQ(mix64(42), mix64(42)); }

TEST(Stats, RunningMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
}

TEST(Stats, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(relative_error(1.0, 0.0)));
}

TEST(Backoff, RoundsSaturateAtTheCap) {
  // rounds() feeds the wlp.doacross.wait_rounds histogram: it must clamp,
  // not wrap, and should_park() must stay true once fired.  (The seed's
  // counter incremented without bound and wrapped after 2^32 pauses.)
  Backoff b(/*spin_limit=*/4);
  for (unsigned i = 0; i < Backoff::kRoundCap + 100; ++i) b.pause();
  EXPECT_EQ(b.rounds(), Backoff::kRoundCap);
  EXPECT_TRUE(b.should_park());
  b.pause();  // past the cap: still well defined, still capped
  EXPECT_EQ(b.rounds(), Backoff::kRoundCap);
  EXPECT_TRUE(b.should_park());
}

TEST(Backoff, OversizedSpinLimitIsClampedSoParkingStaysReachable) {
  // A spin limit beyond the saturation cap would otherwise make
  // should_park() unreachable — the waiter would spin forever.
  Backoff b(/*spin_limit=*/~0u);
  EXPECT_FALSE(b.should_park());
  for (unsigned i = 0; i < Backoff::kRoundCap; ++i) b.pause();
  EXPECT_TRUE(b.should_park());
}

TEST(Backoff, ParkHookCountsAndResets) {
  Backoff b(/*spin_limit=*/0);
  EXPECT_TRUE(b.should_park());  // park-at-once policy
  EXPECT_EQ(b.parks(), 0u);
  b.note_park();
  b.note_park();
  EXPECT_EQ(b.parks(), 2u);
  b.reset();
  EXPECT_EQ(b.parks(), 0u);
  EXPECT_EQ(b.rounds(), 0u);
}

TEST(Backoff, EscalatesFromPauseBurstsWithoutYieldingEarly) {
  // The first kPauseRounds rounds are pure pause bursts; rounds() counts
  // them exactly (the histogram's low buckets are the uncontended case).
  Backoff b;
  for (unsigned i = 0; i < Backoff::kPauseRounds; ++i) b.pause();
  EXPECT_EQ(b.rounds(), Backoff::kPauseRounds);
  EXPECT_FALSE(b.should_park());  // default budget is larger
}

TEST(CacheLine, PaddedSlotsDoNotShareLines) {
  PerWorker<long> slots(4, 7);
  EXPECT_EQ(slots.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(slots[i], 7);
  const auto a = reinterpret_cast<std::uintptr_t>(&slots[0]);
  const auto b = reinterpret_cast<std::uintptr_t>(&slots[1]);
  EXPECT_GE(b - a, kCacheLine);
}

TEST(CacheLine, PerWorkerReduce) {
  PerWorker<long> slots(8, 0);
  for (std::size_t i = 0; i < 8; ++i) slots[i] = static_cast<long>(i);
  EXPECT_EQ(slots.reduce(0L, [](long a, long b) { return a + b; }), 28);
  EXPECT_EQ(slots.reduce(100L, [](long a, long b) { return std::min(a, b); }), 0);
}

TEST(Table, AlignedOutputContainsCells) {
  TextTable t({"method", "speedup"});
  t.row({"General-3", TextTable::num(4.9, 1)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("General-3"), std::string::npos);
  EXPECT_NE(s.find("4.9"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(Table, AsciiCurveRendersBars) {
  std::ostringstream os;
  ascii_curve(os, "series", {1, 2}, {1.0, 2.0}, 2.0, 10);
  const std::string s = os.str();
  EXPECT_NE(s.find("p=  1"), std::string::npos);
  EXPECT_NE(s.find("##########"), std::string::npos);
}

}  // namespace
}  // namespace wlp
