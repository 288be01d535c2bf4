#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "wlp/sched/doall.hpp"

namespace wlp {
namespace {

TEST(DoallQuit, PlainDoallCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const long n = 1000;
  std::vector<std::atomic<int>> hits(n);
  doall(pool, 0, n, [&](long i, unsigned) { hits[static_cast<std::size_t>(i)]++; });
  for (long i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(DoallQuit, QuitTripIsExactAndPrefixComplete) {
  ThreadPool pool(4);
  const long n = 2000;
  const long exit_at = 777;
  std::vector<std::atomic<int>> hits(n);
  const QuitResult qr = doall_quit(pool, 0, n, [&](long i, unsigned) {
    hits[static_cast<std::size_t>(i)]++;
    return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, exit_at);
  // Every iteration below the trip count must have executed exactly once.
  for (long i = 0; i < exit_at; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
  // No iteration ran twice.
  long started = 0;
  for (long i = 0; i < n; ++i) {
    EXPECT_LE(hits[static_cast<std::size_t>(i)].load(), 1);
    started += hits[static_cast<std::size_t>(i)].load();
  }
  EXPECT_EQ(started, qr.started);
}

struct PlantedExit {
  long at;
  IterAction act;
};

std::string exit_trace(const PlantedExit& e, bool use_quit) {
  return "exit at " + std::to_string(e.at) +
         (e.act == IterAction::kExit ? " (kExit)" : " (kExitAfter)") +
         (use_quit ? ", QUIT" : ", no QUIT");
}

// The self-sized blocks are unknown in advance, so over the whole range the
// range's first, an interior and its last iteration stand in for a block's:
// each exit must still give the exact trip and a `started` equal to a
// per-iteration tally.
TEST(DoallQuit, ExitsAreExactWithAndWithoutQuit) {
  ThreadPool pool(4);
  const long n = 2000;
  for (const PlantedExit e :
       {PlantedExit{0, IterAction::kExit}, PlantedExit{n / 2, IterAction::kExit},
        PlantedExit{n - 1, IterAction::kExit},
        PlantedExit{n - 1, IterAction::kExitAfter}}) {
    for (const bool use_quit : {false, true}) {
      SCOPED_TRACE(exit_trace(e, use_quit));
      std::vector<std::atomic<int>> hits(n);
      std::atomic<long> tally{0};
      const QuitResult qr = doall_quit(
          pool, 0, n,
          [&](long i, unsigned) {
            hits[static_cast<std::size_t>(i)]++;
            tally.fetch_add(1, std::memory_order_relaxed);
            return i == e.at ? e.act : IterAction::kContinue;
          },
          use_quit);
      const long trip = e.act == IterAction::kExit ? e.at : e.at + 1;
      EXPECT_EQ(qr.trip, trip);
      EXPECT_EQ(qr.started, tally.load());
      for (long i = 0; i < n; ++i) {
        const int h = hits[static_cast<std::size_t>(i)].load();
        if (i < trip || !use_quit) {
          EXPECT_EQ(h, 1) << "iteration " << i;
        }
        EXPECT_LE(h, 1) << "iteration " << i;
      }
      if (!use_quit) {
        EXPECT_EQ(qr.started, n);
      }
      EXPECT_GE(qr.claims, 1);
    }
  }
}

// The block runner keeps `started` and the exit minimum in locals and adds
// them to the worker's totals once, at the end.  Called directly over a
// known block, an exit on its first, an interior and its last iteration,
// and a kExitAfter on its last, must give the exact exit minimum and
// started count, land the QUIT at once, and with the QUIT stop the block
// right after the exiting iteration.
TEST(DoallBlockRunner, BlockExitsAreExactWithAndWithoutQuit) {
  const long first = 96, end = 160;  // one claimed block [96, 160)
  const long prior_started = 5, prior_trip = 1000;  // the worker's totals
  for (const PlantedExit e :
       {PlantedExit{first, IterAction::kExit},
        PlantedExit{(first + end) / 2, IterAction::kExit},
        PlantedExit{end - 1, IterAction::kExit},
        PlantedExit{end - 1, IterAction::kExitAfter}}) {
    for (const bool use_quit : {false, true}) {
      SCOPED_TRACE(exit_trace(e, use_quit));
      std::vector<int> hits(end, 0);
      auto body = [&](long i, unsigned vpn) {
        EXPECT_EQ(vpn, 2u);
        ++hits[static_cast<std::size_t>(i)];
        return i == e.at ? e.act : IterAction::kContinue;
      };
      QuitBound quit;
      long started = prior_started, trip = prior_trip;
      const bool whole = detail::run_block(body, first, end, 2u, quit, use_quit,
                                           started, trip);
      const long at = e.act == IterAction::kExit ? e.at : e.at + 1;
      const long last_run = use_quit ? e.at : end - 1;
      EXPECT_EQ(trip, at);
      EXPECT_EQ(quit.bound(), at);
      EXPECT_EQ(started, prior_started + (last_run + 1 - first));
      EXPECT_EQ(whole, last_run == end - 1);
      for (long i = 0; i < end; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], i >= first && i <= last_run ? 1 : 0)
            << "iteration " << i;
    }
  }
}

// A QUIT landed by another worker stops the block before the first
// iteration at or past it; the block's first iteration is the claim's to
// check, so the runner begins it whatever the bound.
TEST(DoallBlockRunner, LandedQuitCutsTheBlockAfterItsFirstIteration) {
  auto body = [](long, unsigned) { return IterAction::kContinue; };
  for (const long bound : {30L, 10L}) {
    SCOPED_TRACE("bound " + std::to_string(bound));
    QuitBound quit;
    quit.quit(bound);
    long started = 0, trip = std::numeric_limits<long>::max();
    EXPECT_FALSE(detail::run_block(body, 20, 40, 0u, quit, true, started, trip));
    EXPECT_EQ(started, bound > 20 ? bound - 20 : 1);
    EXPECT_EQ(trip, std::numeric_limits<long>::max());
    // Without the QUIT the same block runs whole.
    started = 0;
    EXPECT_TRUE(detail::run_block(body, 20, 40, 0u, quit, false, started, trip));
    EXPECT_EQ(started, 20);
  }
}

/// A few nanoseconds of work the optimizer cannot elide (xorshift step).
std::uint64_t tiny_work(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// The claim sizes its blocks from measured time: on a ~3 ns
// body they grow until one block takes kBlockTarget, so the shared counter
// is claimed far less often than once per iteration.
TEST(DoallQuit, DefaultScheduleClaimsInBlocks) {
  ThreadPool pool(4);
  const long n = 1 << 16;
  std::vector<Padded<std::uint64_t>> sink(pool.size());
  const QuitResult qr = doall_quit(
      pool, 0, n,
      [&](long i, unsigned vpn) {
        *sink[vpn] += tiny_work(static_cast<std::uint64_t>(i) + 0x9e3779b9u);
        return IterAction::kContinue;
      });
  EXPECT_EQ(qr.trip, n);
  EXPECT_EQ(qr.started, n);
  EXPECT_LT(qr.claims * 16, n);
}

// A body far longer than kBlockTarget never earns a second iteration per
// claim: every block of one already overruns the target.  A slower host
// only lengthens the iterations, so this holds on any machine.
TEST(DoallQuit, CoarseBodyKeepsOneIterationPerClaim) {
  ThreadPool pool(4);
  const QuitResult qr = doall_quit(
      pool, 0, 40,
      [](long, unsigned) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(50);
        while (std::chrono::steady_clock::now() < until) {
        }
        return IterAction::kContinue;
      });
  EXPECT_EQ(qr.trip, 40);
  EXPECT_EQ(qr.started, 40);
  EXPECT_EQ(qr.claims, qr.started);
}

TEST(DoallQuit, ExitAfterCountsTheIteration) {
  ThreadPool pool(4);
  const QuitResult qr = doall_quit(pool, 0, 100, [&](long i, unsigned) {
    return i == 40 ? IterAction::kExitAfter : IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 41);
}

TEST(DoallQuit, MinimumOfMultipleExitsWins) {
  ThreadPool pool(8);
  const QuitResult qr = doall_quit(pool, 0, 500, [&](long i, unsigned) {
    if (i == 200 || i == 150 || i == 420) return IterAction::kExit;
    return IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 150);
}

TEST(DoallQuit, NoExitMeansTripIsUpperBound) {
  ThreadPool pool(4);
  const QuitResult qr =
      doall_quit(pool, 0, 321, [](long, unsigned) { return IterAction::kContinue; });
  EXPECT_EQ(qr.trip, 321);
  EXPECT_EQ(qr.started, 321);
}

TEST(DoallQuit, EmptyRange) {
  ThreadPool pool(4);
  const QuitResult qr =
      doall_quit(pool, 0, 0, [](long, unsigned) { return IterAction::kExit; });
  EXPECT_EQ(qr.trip, 0);
  EXPECT_EQ(qr.started, 0);
}

TEST(DoallQuit, UseQuitFalseExecutesEverything) {
  ThreadPool pool(4);
  const QuitResult qr = doall_quit(
      pool, 0, 300,
      [](long i, unsigned) {
        return i == 10 ? IterAction::kExit : IterAction::kContinue;
      },
      /*use_quit=*/false);
  EXPECT_EQ(qr.trip, 10);
  EXPECT_EQ(qr.started, 300);  // Induction-1: no QUIT hardware
}

TEST(DoallQuit, UseQuitTrueCutsOvershoot) {
  ThreadPool pool(4);
  const QuitResult qr = doall_quit(pool, 0, 100000, [](long i, unsigned) {
    return i == 10 ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 10);
  // The cut must prevent the vast majority of the range from running.
  EXPECT_LT(qr.started, 1000);
}

TEST(DoallQuit, NonZeroLowerBound) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  const QuitResult qr = doall_quit(pool, 100, 200, [&](long i, unsigned) {
    sum += i;
    return IterAction::kContinue;
  });
  EXPECT_EQ(qr.trip, 200);
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(QuitBound, FetchMinSemantics) {
  QuitBound q;
  EXPECT_FALSE(q.cut(1000000));
  q.quit(50);
  q.quit(70);
  q.quit(20);
  EXPECT_EQ(q.bound(), 20);
  EXPECT_TRUE(q.cut(20));
  EXPECT_TRUE(q.cut(21));
  EXPECT_FALSE(q.cut(19));
}

}  // namespace
}  // namespace wlp
