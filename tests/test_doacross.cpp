#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "wlp/sched/doacross.hpp"

namespace wlp {
namespace {

TEST(Doacross, SequentialPhasesObserveProgramOrder) {
  ThreadPool pool(4);
  std::vector<long> seq_order;
  std::mutex mu;  // seq phases are serialized by the pipeline; the mutex only
                  // guards the vector against the test's own data race rules
  long counter = 0;

  const DoacrossResult r = doacross_while(
      pool, 500,
      [&](long i) {
        std::lock_guard lock(mu);
        seq_order.push_back(i);
        ++counter;
        return true;
      },
      [](long, unsigned) {});

  EXPECT_EQ(r.trip, 500);
  ASSERT_EQ(seq_order.size(), 500u);
  for (long i = 0; i < 500; ++i) EXPECT_EQ(seq_order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(counter, 500);
}

TEST(Doacross, StopEndsThePipelineExactly) {
  ThreadPool pool(4);
  std::atomic<long> par_runs{0};
  const DoacrossResult r = doacross_while(
      pool, 10000, [&](long i) { return i < 123; },
      [&](long, unsigned) { par_runs.fetch_add(1); });
  EXPECT_EQ(r.trip, 123);
  EXPECT_EQ(par_runs.load(), 123);  // no overshoot, ever
}

TEST(Doacross, CarriedStateFlowsThroughSeqPhases) {
  ThreadPool pool(4);
  // The sequential phase carries a running product; each parallel phase
  // records the value it was handed.  The handoff must match a serial run.
  std::vector<long> handed(200, -1);
  long x = 1;
  std::vector<long> staged(200);
  const DoacrossResult r = doacross_while(
      pool, 200,
      [&](long i) {
        staged[static_cast<std::size_t>(i)] = x;
        x = x * 3 % 1000003;
        return true;
      },
      [&](long i, unsigned) { handed[static_cast<std::size_t>(i)] = staged[static_cast<std::size_t>(i)]; });
  EXPECT_EQ(r.trip, 200);
  long expect = 1;
  for (long i = 0; i < 200; ++i) {
    EXPECT_EQ(handed[static_cast<std::size_t>(i)], expect);
    expect = expect * 3 % 1000003;
  }
}

TEST(Doacross, ZeroAndOneIteration) {
  ThreadPool pool(4);
  EXPECT_EQ(doacross_while(pool, 0, [](long) { return true; },
                           [](long, unsigned) {})
                .trip,
            0);
  EXPECT_EQ(doacross_while(pool, 5, [](long) { return false; },
                           [](long, unsigned) {})
                .trip,
            0);
  std::atomic<int> runs{0};
  EXPECT_EQ(doacross_while(pool, 1, [](long) { return true; },
                           [&](long, unsigned) { runs.fetch_add(1); })
                .trip,
            1);
  EXPECT_EQ(runs.load(), 1);
}

TEST(Doacross, BatchedPublicationNeverExceedsOnePerIteration) {
  ThreadPool pool(4);
  const DoacrossResult r = doacross_while(
      pool, 1000, [](long) { return true; }, [](long, unsigned) {});
  EXPECT_EQ(r.trip, 1000);
  EXPECT_GE(r.publishes, 1u);
  // One publish per owner stint; helping can only merge stints, never split
  // them, so the count is bounded by the trip (plus the final advance).
  EXPECT_LE(r.publishes, 1001u);
}

TEST(Doacross, MultiWindowRunsCrossTheFrontierReset) {
  // Exercise the window loop doacross_while hides behind a 2^30-iteration
  // window: 1000 iterations in windows of 64, with the stop mid-window.
  ThreadPool pool(4);
  std::atomic<long> par_runs{0};
  long x = 0;  // carried through seq phases: program order check
  const DoacrossResult keep = detail::doacross_run(
      pool, 1000, 64, /*spin_limit=*/0,
      [&](long i) {
        EXPECT_EQ(x, i);  // strict order across window boundaries
        ++x;
        return true;
      },
      [&](long, unsigned) { par_runs.fetch_add(1); });
  EXPECT_EQ(keep.trip, 1000);
  EXPECT_EQ(par_runs.load(), 1000);

  par_runs.store(0);
  const DoacrossResult stop = detail::doacross_run(
      pool, 1000, 64, /*spin_limit=*/0, [](long i) { return i < 500; },
      [&](long, unsigned) { par_runs.fetch_add(1); });
  EXPECT_EQ(stop.trip, 500);  // fires inside the 8th window
  EXPECT_EQ(par_runs.load(), 500);
}

// ---- parked-frontier stress (TSan-covered via the *Doacross* CI filter) ----

// A spin limit of 0 makes every waiter park on the frontier futex word
// immediately, so these tests drive the park/wake protocol deterministically
// regardless of the host's core count.  doacross_while derives the limit
// from the pool, so they call the window loop behind it directly.
constexpr unsigned kParkAtOnce = 0;

TEST(DoacrossStress, OversubscribedPoolEarlyTermination) {
  // More threads than any CI host has cores: every frontier handoff crosses
  // a context switch, and the stop must still reach every claimed iteration.
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> par_runs{0};
    long x = 0;
    const DoacrossResult r = detail::doacross_run(
        pool, 20000, detail::kFrontierWindow, kParkAtOnce,
        [&](long i) {
          EXPECT_EQ(x, i);
          ++x;
          return i < 777;
        },
        [&](long, unsigned) { par_runs.fetch_add(1); });
    EXPECT_EQ(r.trip, 777);
    EXPECT_EQ(par_runs.load(), 777);  // no overshoot, no lost wakeup
  }
}

TEST(DoacrossStress, StopSentinelPropagatesPastClaimedIterations) {
  // A stop at iteration s must release waiters already parked on claimed
  // iterations > s (they return) and at iterations < s (they still run
  // their parallel phase).  With 8 threads and an immediate stop, up to 7
  // successors are claimed-and-parked when the sentinel lands.
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> par_runs{0};
    const DoacrossResult r = detail::doacross_run(
        pool, 10000, detail::kFrontierWindow, kParkAtOnce,
        [&](long i) { return i < 3; },
        [&](long i, unsigned) {
          EXPECT_LT(i, 3);
          par_runs.fetch_add(1);
        });
    EXPECT_EQ(r.trip, 3);
    EXPECT_EQ(par_runs.load(), 3);
  }
}

// ~1-2 µs of unelidable sequential-phase work.  An instant seq never makes
// anyone wait (the pipeline's frontier stays ahead of every claimant — the
// desired fast path); a slow seq is what stacks claimants up on the
// frontier and drives the park/wake protocol.
inline long seq_work(long x) {
  std::uint64_t v = static_cast<std::uint64_t>(x) | 1u;
  for (int k = 0; k < 3000; ++k) {
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
  }
  return static_cast<long>(v & 0xffff);
}

TEST(DoacrossStress, ParkedWaitersWakeOnKeepGoingPath) {
  const long n = 8000;
  ThreadPool pool(8);
  std::vector<long> handed(static_cast<std::size_t>(n), -1);
  std::vector<long> staged(static_cast<std::size_t>(n));
  long x = 1;
  const DoacrossResult r = detail::doacross_run(
      pool, n, detail::kFrontierWindow, kParkAtOnce,
      [&](long i) {
        staged[static_cast<std::size_t>(i)] = x;
        x = (x + seq_work(x + i)) % 1000003;
        return true;
      },
      [&](long i, unsigned) {
        handed[static_cast<std::size_t>(i)] = staged[static_cast<std::size_t>(i)];
      });
  EXPECT_EQ(r.trip, n);
  long expect = 1;
  for (long i = 0; i < n; ++i) {
    EXPECT_EQ(handed[static_cast<std::size_t>(i)], expect);
    expect = (expect + seq_work(expect + i)) % 1000003;
  }
  // With 8 threads parking at once and micro-seconds-long sequential
  // phases, some waits must have slept; every one of them was woken by a
  // publication broadcast (or never slept thanks to the kernel-side value
  // check) — a lost wake would deadlock this test, not fail an expectation.
  // Park-at-once waits burn zero backoff rounds: that zeroed spin budget is
  // exactly what the parked frontier buys over the seed's spin chain.
  EXPECT_GT(r.parks, 0u);
  EXPECT_EQ(r.wait_rounds, 0u);

  // A/B: the same workload with a spin budget records nonzero wait rounds
  // (the wlp.doacross.wait_rounds histogram input) and — given the budget
  // is effectively unbounded — never parks.
  x = 1;
  const DoacrossResult spin = detail::doacross_run(
      pool, n, detail::kFrontierWindow, Backoff::kRoundCap,
      [&](long i) {
        staged[static_cast<std::size_t>(i)] = x;
        x = (x + seq_work(x + i)) % 1000003;
        return true;
      },
      [&](long i, unsigned) {
        handed[static_cast<std::size_t>(i)] = staged[static_cast<std::size_t>(i)];
      });
  EXPECT_EQ(spin.trip, n);
  EXPECT_GT(spin.wait_rounds, 0u);
}

TEST(DoacrossStress, ParkedWaitersWakeOnStopPath) {
  ThreadPool pool(8);
  for (int round = 0; round < 30; ++round) {
    std::atomic<long> par_runs{0};
    const DoacrossResult r = detail::doacross_run(
        pool, 10000, detail::kFrontierWindow, kParkAtOnce,
        [&](long i) {
          if (i == 100) std::this_thread::yield();  // widen the parked window
          return i < 100;
        },
        [&](long, unsigned) { par_runs.fetch_add(1); });
    EXPECT_EQ(r.trip, 100);
    EXPECT_EQ(par_runs.load(), 100);
  }
}

}  // namespace
}  // namespace wlp
