#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "wlp/sched/doall.hpp"

namespace wlp {
namespace {

// gtest prints a parameter without operator<< as a dump of its bytes, and
// gtest_discover_tests puts that dump into each ctest name. So the case holds
// no pointer and no padding: three 64-bit fields (schedule, chunk, pool
// size), and the name suffix is derived from the schedule and chunk.
struct DoallSchedCase {
  std::int64_t sched;  ///< a Sched value
  std::int64_t chunk;
  std::int64_t procs;
};

std::string sched_case_name(const DoallSchedCase& c) {
  switch (static_cast<Sched>(c.sched)) {
    case Sched::kDynamic:
      return "dyn" + std::to_string(c.chunk);
    case Sched::kStaticCyclic:
      return "cyclic";
    case Sched::kStaticBlock:
      return "block";
    case Sched::kGuided:
      return "guided" + std::to_string(c.chunk);
  }
  std::abort();
}

class DoallAllSchedules : public ::testing::TestWithParam<DoallSchedCase> {};

TEST_P(DoallAllSchedules, PlainDoallCoversRangeExactlyOnce) {
  ThreadPool pool(static_cast<unsigned>(GetParam().procs));
  const long n = 1000;
  std::vector<std::atomic<int>> hits(n);
  DoallOptions opts;
  opts.sched = static_cast<Sched>(GetParam().sched);
  opts.chunk = GetParam().chunk;
  doall(pool, 0, n, [&](long i, unsigned) { hits[static_cast<std::size_t>(i)]++; },
        opts);
  for (long i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST_P(DoallAllSchedules, QuitTripIsExactAndPrefixComplete) {
  ThreadPool pool(static_cast<unsigned>(GetParam().procs));
  const long n = 2000;
  const long exit_at = 777;
  std::vector<std::atomic<int>> hits(n);
  DoallOptions opts;
  opts.sched = static_cast<Sched>(GetParam().sched);
  opts.chunk = GetParam().chunk;
  const QuitResult qr = doall_quit(
      pool, 0, n,
      [&](long i, unsigned) {
        hits[static_cast<std::size_t>(i)]++;
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      opts);
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

INSTANTIATE_TEST_SUITE_P(
    Schedules, DoallAllSchedules,
    ::testing::Values(
        DoallSchedCase{static_cast<std::int64_t>(Sched::kDynamic), 0, 4},
        DoallSchedCase{static_cast<std::int64_t>(Sched::kDynamic), 1, 4},
        DoallSchedCase{static_cast<std::int64_t>(Sched::kDynamic), 16, 4},
        DoallSchedCase{static_cast<std::int64_t>(Sched::kStaticCyclic), 1, 4},
        DoallSchedCase{static_cast<std::int64_t>(Sched::kStaticBlock), 1, 4},
        DoallSchedCase{static_cast<std::int64_t>(Sched::kGuided), 1, 4},
        DoallSchedCase{static_cast<std::int64_t>(Sched::kGuided), 8, 4}),
    [](const auto& info) { return sched_case_name(info.param); });

// Guided self-scheduling must deliver identical semantics to kDynamic (the
// parameterized suite above covers trip/coverage/QUIT) while touching the
// shared iteration counter geometrically fewer times.
TEST(DoallGuided, ClaimsFarFewerChunksThanDynamic) {
  ThreadPool pool(4);
  const long n = 20000;
  auto count_claims = [&](Sched sched) {
    DoallOptions opts;
    opts.sched = sched;
    opts.chunk = 1;
    const QuitResult qr = doall_quit(
        pool, 0, n, [](long, unsigned) { return IterAction::kContinue; }, opts);
    EXPECT_EQ(qr.trip, n);
    EXPECT_EQ(qr.started, n);
    return qr.claims;
  };
  const long dynamic_claims = count_claims(Sched::kDynamic);
  const long guided_claims = count_claims(Sched::kGuided);
  EXPECT_EQ(dynamic_claims, n);  // chunk 1: one claim per iteration
  EXPECT_GT(guided_claims, 0);
  // Guided claim count is O(p log(n/p)) — orders of magnitude below n.
  EXPECT_LT(guided_claims, n / 20);
}

TEST(DoallGuided, ChunkFloorBoundsClaimSize) {
  ThreadPool pool(4);
  const long n = 1000;
  DoallOptions opts;
  opts.sched = Sched::kGuided;
  opts.chunk = 64;  // floor: tail grabs never shrink below this
  std::atomic<long> ran{0};
  const QuitResult qr = doall_quit(
      pool, 0, n,
      [&](long, unsigned) {
        ran.fetch_add(1, std::memory_order_relaxed);
        return IterAction::kContinue;
      },
      opts);
  EXPECT_EQ(qr.trip, n);
  EXPECT_EQ(ran.load(), n);
  // With a floor of 64, at most ceil(1000/64) + p claims can happen.
  EXPECT_LE(qr.claims, n / 64 + 1 + 4);
}

TEST(DoallGuided, QuitCutsOvershootMidChunk) {
  ThreadPool pool(4);
  const long n = 100000;
  DoallOptions opts;
  opts.sched = Sched::kGuided;
  const QuitResult qr = doall_quit(
      pool, 0, n,
      [](long i, unsigned) {
        return i == 10 ? IterAction::kExit : IterAction::kContinue;
      },
      opts);
  EXPECT_EQ(qr.trip, 10);
  // The first grabs are ~n/p iterations, but the in-chunk cut must stop
  // them soon after the QUIT lands — the whole range must not execute.
  EXPECT_LT(qr.started, n / 2);
}

/// A few nanoseconds of work the optimizer cannot elide (xorshift step).
std::uint64_t tiny_work(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// The default kDynamic claim sizes its blocks from measured time: on a ~3 ns
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
      },
      DoallOptions{});
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
      },
      DoallOptions{});
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
  DoallOptions opts;
  opts.use_quit = false;
  const QuitResult qr = doall_quit(
      pool, 0, 300,
      [](long i, unsigned) {
        return i == 10 ? IterAction::kExit : IterAction::kContinue;
      },
      opts);
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
