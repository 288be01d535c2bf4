#include <gtest/gtest.h>

#include <atomic>

#include "wlp/core/while_doany.hpp"

namespace wlp {
namespace {

TEST(WhileDoany, StopsAfterAnyAcceptableIteration) {
  ThreadPool pool(4);
  std::atomic<long> found{-1};
  const ExecReport r = while_doany(pool, 100000, [&](long i, unsigned) {
    if (i % 997 == 500) {  // several acceptable iterations exist
      long expected = -1;
      found.compare_exchange_strong(expected, i);
      return IterAction::kExitAfter;
    }
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.method, Method::kDoany);
  EXPECT_GE(found.load(), 0);
  EXPECT_EQ(found.load() % 997, 500);
  // The QUIT wound the loop down long before the bound.
  EXPECT_LT(r.started, 100000);
}

TEST(WhileDoany, NoAcceptableIterationRunsEverything) {
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  const ExecReport r = while_doany(pool, 5000, [&](long, unsigned) {
    runs.fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 5000);
  EXPECT_EQ(runs.load(), 5000);
}

TEST(BestCandidate, KeepsMinimumCost) {
  BestCandidate b;
  EXPECT_TRUE(b.empty());
  b.publish(50, 1);
  b.publish(20, 2);
  b.publish(90, 3);
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.cost(), 20u);
  EXPECT_EQ(b.payload(), 2u);
}

TEST(BestCandidate, TieBreaksOnPayload) {
  BestCandidate b;
  b.publish(20, 9);
  b.publish(20, 3);  // same cost, smaller payload (iteration) wins
  EXPECT_EQ(b.payload(), 3u);
}

TEST(BestCandidate, ResetEmpties) {
  BestCandidate b;
  b.publish(1, 1);
  b.reset();
  EXPECT_TRUE(b.empty());
}

TEST(BestCandidate, ConcurrentPublishes) {
  ThreadPool pool(8);
  BestCandidate b;
  doall(pool, 0, 10000, [&](long i, unsigned) {
    b.publish(static_cast<std::uint32_t>((i * 37) % 5000 + 1),
              static_cast<std::uint32_t>(i));
  });
  // Minimum of (i*37 % 5000) + 1 over i is 1 at i = 0 (and i multiples).
  EXPECT_EQ(b.cost(), 1u);
}

}  // namespace
}  // namespace wlp
