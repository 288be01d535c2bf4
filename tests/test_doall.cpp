#include <gtest/gtest.h>

#include <algorithm>
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

// One claimed block: iterations first, first + stride, ..., last.
struct ClaimedBlock {
  long first, last, stride;
};

// The blocks `opts` claims over [0, n) on p workers when they do not depend
// on timing: fixed kDynamic chunks, kGuided's max(chunk, remaining/p) grabs,
// and each worker's whole share under the static schedules.  Empty for the
// self-sized kDynamic default.
std::vector<ClaimedBlock> claimed_blocks(const DoallOptions& opts, long n, long p) {
  std::vector<ClaimedBlock> out;
  const long chunk = std::max(opts.chunk, 1L);
  switch (opts.sched) {
    case Sched::kDynamic:
      if (opts.chunk > 0)
        for (long b = 0; b < n; b += chunk) out.push_back({b, std::min(b + chunk, n) - 1, 1});
      break;
    case Sched::kGuided:
      for (long b = 0, take = 0; b < n; b += take) {
        take = std::max(chunk, (n - b) / p);
        out.push_back({b, std::min(b + take, n) - 1, 1});
      }
      break;
    case Sched::kStaticBlock:
      for (long b = 0, blk = (n + p - 1) / p; b < n; b += blk)
        out.push_back({b, std::min(b + blk, n) - 1, 1});
      break;
    case Sched::kStaticCyclic:
      for (long v = 0; v < std::min(p, n); ++v) out.push_back({v, v + (n - 1 - v) / p * p, p});
      break;
  }
  return out;
}

// The block runner keeps `started` and the exit minimum in locals and
// writes them back once per block.  Exits on a block's first, an interior
// and its last iteration, and a kExitAfter on its last, must still give the
// exact trip, a `started` equal to a per-iteration tally, and the claim
// count of a run that finishes every block (with the QUIT: no more).
TEST_P(DoallAllSchedules, BlockRunnerExitsAreExactWithAndWithoutQuit) {
  ThreadPool pool(static_cast<unsigned>(GetParam().procs));
  const long n = 2000;
  DoallOptions opts;
  opts.sched = static_cast<Sched>(GetParam().sched);
  opts.chunk = GetParam().chunk;
  const std::vector<ClaimedBlock> blocks = claimed_blocks(opts, n, pool.size());
  // A block in the middle of the range; the self-sized blocks are unknown,
  // so there the range's first and last iterations stand in for a block's.
  const ClaimedBlock b =
      blocks.empty() ? ClaimedBlock{0, n - 1, 1} : blocks[blocks.size() / 2];
  const long interior = b.first + (b.last - b.first) / b.stride / 2 * b.stride;
  struct Exit {
    long at;
    IterAction act;
  };
  for (const Exit e : {Exit{b.first, IterAction::kExit}, Exit{interior, IterAction::kExit},
                       Exit{b.last, IterAction::kExit}, Exit{b.last, IterAction::kExitAfter}}) {
    for (const bool use_quit : {false, true}) {
      SCOPED_TRACE("exit at " + std::to_string(e.at) +
                   (e.act == IterAction::kExit ? " (kExit)" : " (kExitAfter)") +
                   (use_quit ? ", QUIT" : ", no QUIT"));
      opts.use_quit = use_quit;
      std::vector<std::atomic<int>> hits(n);
      std::atomic<long> tally{0};
      const QuitResult qr = doall_quit(
          pool, 0, n,
          [&](long i, unsigned) {
            hits[static_cast<std::size_t>(i)]++;
            tally.fetch_add(1, std::memory_order_relaxed);
            return i == e.at ? e.act : IterAction::kContinue;
          },
          opts);
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
      if (!blocks.empty()) {
        const auto all = static_cast<long>(blocks.size());
        if (use_quit) {
          EXPECT_LE(qr.claims, all);
        } else {
          EXPECT_EQ(qr.claims, all);
        }
      }
      EXPECT_GE(qr.claims, 1);
    }
  }
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

// Launched from a task of the same pool, a DOALL runs its worker shares
// inline, one after another in vpn order (ThreadPool's re-entrancy rule), so
// worker 0's exit lands before any other worker begins.  The static
// schedules check the QUIT before a share's first iteration too, so no
// other worker runs anything; every share still counts as claimed.
TEST(DoallStatic, QuitBeforeFirstIterationStopsTheWorker) {
  ThreadPool pool(4);
  for (const Sched sched : {Sched::kStaticCyclic, Sched::kStaticBlock}) {
    DoallOptions opts;
    opts.sched = sched;
    std::atomic<long> ran{0};
    QuitResult qr;
    pool.parallel([&](unsigned vpn) {
      if (vpn != 0) return;
      qr = doall_quit(
          pool, 0, 400,
          [&](long, unsigned) {
            ran.fetch_add(1, std::memory_order_relaxed);
            return IterAction::kExit;
          },
          opts);
    });
    EXPECT_EQ(qr.trip, 0);
    EXPECT_EQ(qr.started, 1);
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(qr.claims, 4);
  }
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
