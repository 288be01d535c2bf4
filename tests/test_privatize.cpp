#include <gtest/gtest.h>

#include <vector>

#include "wlp/core/speculative_privatized.hpp"

namespace wlp {
namespace {

// The privatization mechanism of PrivatizedSpecArray (Sections 4/5):
// copy-in, per-worker private writes and time-stamp-ordered copy-out.
// Each write runs inside an iteration the worker began, as in a loop body.

TEST(Privatize, CopyInSeedsPrivateCopies) {
  std::vector<double> shared{1.0, 2.0, 3.0};
  PrivatizedSpecArray<double> p(shared, 3);
  for (unsigned w = 0; w < 3; ++w) {
    p.begin_iteration(w, w);
    EXPECT_EQ(p.get(w, 0), 1.0);
    EXPECT_EQ(p.get(w, 2), 3.0);
  }
}

TEST(Privatize, WritesArePerWorker) {
  std::vector<double> shared{0.0, 0.0};
  PrivatizedSpecArray<double> p(shared, 2);
  p.begin_iteration(0, 0);
  p.begin_iteration(1, 1);
  p.set(0, /*iter=*/0, 0, 11.0);
  EXPECT_EQ(p.get(0, 0), 11.0);
  EXPECT_EQ(p.get(1, 0), 0.0);  // other worker unaffected
  EXPECT_EQ(shared[0], 0.0);    // shared untouched until copy-out
}

TEST(Privatize, CopyOutTakesLatestValidStamp) {
  std::vector<double> shared{0.0};
  PrivatizedSpecArray<double> p(shared, 3);
  // Location 0 written by iterations 2, 8, 5 on different workers.
  p.begin_iteration(0, 2);
  p.set(0, 2, 0, 20.0);
  p.begin_iteration(1, 8);
  p.set(1, 8, 0, 80.0);
  p.begin_iteration(2, 5);
  p.set(2, 5, 0, 50.0);
  // trip = 6: iteration 8 is overshoot; the latest valid is iteration 5.
  EXPECT_EQ(p.copy_out(6), 1);
  EXPECT_EQ(shared[0], 50.0);
}

TEST(Privatize, CopyOutIgnoresAllOvershoot) {
  std::vector<double> shared{7.0};
  PrivatizedSpecArray<double> p(shared, 2);
  p.begin_iteration(0, 10);
  p.set(0, 10, 0, 99.0);
  EXPECT_EQ(p.copy_out(5), 0);  // nothing valid
  EXPECT_EQ(shared[0], 7.0);
}

TEST(Privatize, SameIterationLastWriteWins) {
  std::vector<double> shared{0.0};
  PrivatizedSpecArray<double> p(shared, 1);
  p.begin_iteration(0, 3);
  p.set(0, 3, 0, 1.0);
  p.set(0, 3, 0, 2.0);  // same iteration, later program order
  p.set(0, 3, 0, 3.0);
  EXPECT_EQ(p.copy_out(10), 1);
  EXPECT_EQ(shared[0], 3.0);
}

TEST(Privatize, MultipleLocations) {
  std::vector<double> shared(5, -1.0);
  PrivatizedSpecArray<double> p(shared, 2);
  p.begin_iteration(0, 0);
  p.set(0, 0, 1, 10.0);
  p.begin_iteration(1, 1);
  p.set(1, 1, 3, 30.0);
  p.begin_iteration(0, 2);
  p.set(0, 2, 1, 11.0);
  EXPECT_EQ(p.copy_out(3), 2);
  EXPECT_EQ(shared[1], 11.0);
  EXPECT_EQ(shared[3], 30.0);
  EXPECT_EQ(shared[0], -1.0);
}

TEST(Privatize, TrailEntriesCountsMemoryCost) {
  std::vector<double> shared(4, 0.0);
  PrivatizedSpecArray<double> p(shared, 2);
  EXPECT_EQ(p.trail_entries(), 0u);
  p.begin_iteration(0, 0);
  p.set(0, 0, 0, 1.0);
  p.begin_iteration(1, 1);
  p.set(1, 1, 1, 1.0);
  p.begin_iteration(1, 2);
  p.set(1, 2, 1, 2.0);
  EXPECT_EQ(p.trail_entries(), 3u);
}

}  // namespace
}  // namespace wlp
