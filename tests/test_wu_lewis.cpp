#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "wlp/core/wu_lewis.hpp"

namespace wlp {
namespace {

struct Chain {
  std::vector<long> next;
  explicit Chain(long n) : next(static_cast<std::size_t>(n)) {
    std::iota(next.begin(), next.end(), 1);
    if (n > 0) next.back() = -1;
  }
  auto next_fn() const {
    return [this](long c) { return next[static_cast<std::size_t>(c)]; };
  }
  static bool is_end(long c) { return c < 0; }
};

TEST(WuLewisDistribute, TraversesOnceThenDoall) {
  ThreadPool pool(4);
  Chain chain(600);
  std::vector<std::atomic<int>> hit(600);
  const ExecReport r = while_wu_lewis_distribute(
      pool, 0L, chain.next_fn(), &Chain::is_end,
      [&](long i, long cursor, unsigned) {
        EXPECT_EQ(i, cursor);  // the prologue recorded the terms in order
        hit[static_cast<std::size_t>(cursor)].fetch_add(1);
        return IterAction::kContinue;
      },
      10000);
  EXPECT_EQ(r.method, Method::kWuLewisDistribute);
  EXPECT_EQ(r.trip, 600);
  EXPECT_EQ(r.dispatcher_steps, 600);  // the serial prologue's cost
  for (auto& h : hit) EXPECT_EQ(h.load(), 1);
}

TEST(WuLewisDistribute, RVExitInDoallPhase) {
  ThreadPool pool(4);
  Chain chain(600);
  const ExecReport r = while_wu_lewis_distribute(
      pool, 0L, chain.next_fn(), &Chain::is_end,
      [&](long i, long, unsigned) {
        return i == 123 ? IterAction::kExit : IterAction::kContinue;
      },
      10000);
  EXPECT_EQ(r.trip, 123);
  // The prologue still walked the entire list: the superfluous-values cost.
  EXPECT_EQ(r.dispatcher_steps, 600);
}

TEST(WuLewisDistribute, RVExitStopsIssuingLaterIterations) {
  // The prologue walks the whole range; the QUIT of an early RV exit stops
  // the DOALL over the recorded terms from starting the rest.
  ThreadPool pool(4);
  const long u = 1L << 20;
  const ExecReport r = while_wu_lewis_distribute(
      pool, 0L, [](long c) { return c + 1; }, [](long) { return false; },
      [](long i, long, unsigned) {
        return i == 1000 ? IterAction::kExit : IterAction::kContinue;
      },
      u);
  EXPECT_EQ(r.trip, 1000);
  EXPECT_EQ(r.dispatcher_steps, u);
  EXPECT_LT(r.started, u / 4);
  EXPECT_EQ(r.overshot, r.started - r.trip);
}

TEST(WuLewisDistribute, RespectsUpperBound) {
  ThreadPool pool(4);
  Chain chain(600);
  const ExecReport r = while_wu_lewis_distribute(
      pool, 0L, chain.next_fn(), &Chain::is_end,
      [](long, long, unsigned) { return IterAction::kContinue; }, 50);
  EXPECT_EQ(r.trip, 50);
}

TEST(WuLewisDoacross, NeverOvershootsAndVisitsInOrderHandoff) {
  ThreadPool pool(4);
  Chain chain(400);
  std::vector<std::atomic<int>> hit(400);
  const ExecReport r = while_wu_lewis_doacross(
      pool, 0L, chain.next_fn(), &Chain::is_end,
      [&](long i, long cursor, unsigned) {
        EXPECT_EQ(i, cursor);
        hit[static_cast<std::size_t>(cursor)].fetch_add(1);
      },
      1000);
  EXPECT_EQ(r.method, Method::kWuLewisDoacross);
  EXPECT_EQ(r.trip, 400);
  EXPECT_EQ(r.overshot, 0);
  for (auto& h : hit) EXPECT_EQ(h.load(), 1);
}

TEST(WuLewisDoacross, EmptyList) {
  ThreadPool pool(4);
  Chain chain(0);
  long head = -1;
  const ExecReport r = while_wu_lewis_doacross(
      pool, head, chain.next_fn(), &Chain::is_end, [](long, long, unsigned) {},
      100);
  EXPECT_EQ(r.trip, 0);
}

}  // namespace
}  // namespace wlp
