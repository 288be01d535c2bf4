// wlp::mem coverage — arena recycling/alignment/accounting and the
// steady-state zero-allocation contract, both read through the process
// Budget's deltas: strip retries and PD shadow reuse must hand out zero
// arena blocks once warm.  The Mem* suites are also the TSan CI filter's
// entry point for the concurrent arena stress test.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "wlp/core/shadow.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/mem/arena.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp {
namespace {

mem::BudgetSnapshot ledger() { return mem::Budget::process().snapshot(); }

// ---- arena block recycling --------------------------------------------------

TEST(MemArena, SmallBlockRecyclesThroughTheFreeList) {
  const mem::BudgetSnapshot s0 = ledger();
  mem::Arena a;
  void* p = a.allocate(4096);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % mem::Arena::kMinClass, 0u);
  a.deallocate(p, 4096);
  void* q = a.allocate(4096);
  EXPECT_EQ(q, p);  // same class ⇒ the freed block comes straight back
  const mem::BudgetSnapshot s1 = ledger();
  EXPECT_EQ(s1.arena_allocs - s0.arena_allocs, 2);
  EXPECT_EQ(s1.frees - s0.frees, 1);
  EXPECT_EQ(s1.slow_allocs - s0.slow_allocs, 1);  // one slab served both
}

TEST(MemArena, MixedClassCarvesStayClassAligned) {
  // Sequential carves of different classes from one slab must re-align the
  // bump pointer: a 64 B carve followed by a 1 KiB-class request cannot
  // hand out an offset that is merely 64-aligned.
  const mem::BudgetSnapshot s0 = ledger();
  mem::Arena a;
  (void)a.allocate(64);
  void* p1k = a.allocate(1000);  // class 1024
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1k) % 1024, 0u);
  (void)a.allocate(64);
  void* p8k = a.allocate(5000);  // class 8192
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8k) % 8192, 0u);
  EXPECT_EQ(ledger().slow_allocs - s0.slow_allocs, 1);  // one slab
}

TEST(MemArena, LargeBlocksRecycleByExactSize) {
  const mem::BudgetSnapshot s0 = ledger();
  mem::Arena a;
  const std::size_t big = 256u * 1024;  // >= kLargeMin ⇒ dedicated block
  void* p = a.allocate(big);
  ASSERT_NE(p, nullptr);
  const mem::BudgetSnapshot after_first = ledger();
  EXPECT_EQ(after_first.slow_allocs - s0.slow_allocs, 1);
  a.deallocate(p, big);
  void* q = a.allocate(big);
  EXPECT_EQ(q, p);  // exact-size key ⇒ perfect reuse, no pow2 waste
  const mem::BudgetSnapshot s1 = ledger();
  EXPECT_EQ(s1.slow_allocs - s0.slow_allocs, 1);  // the OS was asked once
  EXPECT_EQ(s1.bytes_live, after_first.bytes_live);
}

TEST(MemArena, TypedArraysRoundTrip) {
  mem::Arena a;
  double* d = a.allocate_array<double>(1000);
  ASSERT_NE(d, nullptr);
  for (int i = 0; i < 1000; ++i) d[i] = i * 0.5;
  EXPECT_EQ(d[999], 499.5);
  a.deallocate_array(d, 1000);
  double* e = a.allocate_array<double>(1000);
  EXPECT_EQ(e, d);
  a.deallocate_array(e, 1000);
}

// ---- the process ledger -----------------------------------------------------

TEST(MemBudget, ArenaChargesAndReleasesTheLedger) {
  const mem::BudgetSnapshot s0 = mem::Budget::process().snapshot();
  {
    mem::Arena a;
    const std::size_t big = 512u * 1024;
    void* p = a.allocate(big);
    const mem::BudgetSnapshot s1 = mem::Budget::process().snapshot();
    EXPECT_EQ(s1.slow_allocs - s0.slow_allocs, 1);   // one OS trip
    EXPECT_EQ(s1.arena_allocs - s0.arena_allocs, 1);
    EXPECT_GE(s1.bytes_live - s0.bytes_live, static_cast<long>(big));
    EXPECT_GE(s1.bytes_peak, s1.bytes_live);
    a.deallocate(p, big);
    void* q = a.allocate(big);  // recycled: a block, but not an OS trip
    EXPECT_EQ(q, p);
    const mem::BudgetSnapshot s2 = mem::Budget::process().snapshot();
    EXPECT_EQ(s2.slow_allocs - s0.slow_allocs, 1);
    EXPECT_EQ(s2.arena_allocs - s0.arena_allocs, 2);
    EXPECT_EQ(s2.frees - s0.frees, 1);
  }
  // The dtor returns everything to the OS and credits the ledger.
  const mem::BudgetSnapshot s3 = mem::Budget::process().snapshot();
  EXPECT_EQ(s3.bytes_live, s0.bytes_live);
}

// ---- steady-state zero-allocation regressions (the ISSUE's contract) --------

TEST(MemSteadyState, StripRetriesAllocateNothingOnceWarm) {
  ThreadPool pool(4);
  const long n = 64 * 256, strip = 256;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};
  // Warm every worker's log: one share per vpn opens its first segment.  A
  // worker the self-sized claims skip in the warm run would otherwise open
  // it inside the measured one.
  pool.parallel([&](unsigned vpn) {
    arr.begin_iteration(vpn, 0);
    arr.set(vpn, 0, vpn, 1.0);
  });
  auto run_once = [&] {
    return strip_speculative_while(
        pool, n, strip, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
          return IterAction::kContinue;
        },
        [&](long, long end) { return end; });
  };

  const StripSpecReport warm = run_once();
  ASSERT_EQ(warm.strips_failed, 0);
  const mem::BudgetSnapshot s0 = mem::Budget::process().snapshot();
  const StripSpecReport hot = run_once();
  ASSERT_EQ(hot.strips_failed, 0);
  const mem::BudgetSnapshot s1 = mem::Budget::process().snapshot();

  // The whole retry loop — checkpoints, stamps, shadow marks, undo — runs
  // on storage owned before it started: zero blocks handed out, zero OS
  // trips, footprint flat.
  EXPECT_EQ(s1.arena_allocs - s0.arena_allocs, 0);
  EXPECT_EQ(s1.slow_allocs - s0.slow_allocs, 0);
  EXPECT_EQ(s1.bytes_live, s0.bytes_live);
}

TEST(MemSteadyState, ShadowResetReusesArenaSegments) {
  PDMarks marks(4096, /*workers=*/4, /*on=*/true);
  ThreadPool pool(1);
  auto round = [&](long r) {
    marks.reset();
    for (unsigned w = 0; w < 4; ++w) {
      marks.begin_iteration(w, r);
      marks.on_write(w, (static_cast<std::size_t>(r) + w) % 4096);
      marks.on_read(w, (static_cast<std::size_t>(r) + w + 1) % 4096);
    }
    return marks.analyze(pool, r + 1);
  };
  (void)round(1);  // warm-up: log segments and the analysis buffer
  const mem::BudgetSnapshot s0 = mem::Budget::process().snapshot();
  for (int r = 0; r < 100; ++r) (void)round(r);
  const mem::BudgetSnapshot s1 = mem::Budget::process().snapshot();
  EXPECT_EQ(s1.arena_allocs - s0.arena_allocs, 0);  // segments pooled
  EXPECT_EQ(s1.slow_allocs - s0.slow_allocs, 0);
}

TEST(MemSteadyState, ShadowOnRecycledBlocksStartsClean) {
  // Construct, fill and destroy a store; the next same-shape store gets
  // the SAME arena blocks back, holding whatever entries the first life
  // left behind.  The new store's logs start empty, or stale entries leak
  // into its first round as phantom conflicts.
  const std::size_t n = 2048;
  ThreadPool pool(1);
  {
    PDMarks first(n, /*workers=*/2, /*on=*/true);
    for (long i = 0; i < 64; ++i) {
      first.begin_iteration(0u, i);
      first.on_write(0u, static_cast<std::size_t>(i));
      first.begin_iteration(1u, i + 500);
      first.on_write(1u, static_cast<std::size_t>(i));  // 2nd writer
    }
    EXPECT_GT(first.analyze(pool, 1L << 40).multi_written, 0);
  }
  PDMarks second(n, /*workers=*/2, /*on=*/true);
  second.begin_iteration(0u, 3);
  second.on_write(0u, 7);  // reopens a segment for vpn 0
  second.begin_iteration(1u, 4);
  second.on_write(1u, 9);
  const PDVerdict v = second.analyze(pool, 1L << 40);
  EXPECT_EQ(v.written_elements, 2);  // only this life's marks are visible
  EXPECT_EQ(v.multi_written, 0);
  EXPECT_EQ(v.conflicts, 0);
}

// ---- concurrent arena stress (TSan runs Mem* in CI) -------------------------

TEST(MemArenaStress, ConcurrentAllocateFreeIsRaceFree) {
  // Every thread hammers both the process arena and one arena of its own
  // making, so each mutex is contended.  TSan watches the free-list
  // splicing and the budget's relaxed counters.
  const mem::BudgetSnapshot s0 = ledger();
  mem::Arena shared;
  constexpr int kThreads = 4, kRounds = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&shared, t] {
      mem::Arena& local = mem::process_arena();
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t sz = 64u << (r % 5);  // 64 B ... 1 KiB
        auto* a = static_cast<unsigned char*>(local.allocate(sz));
        auto* b = static_cast<unsigned char*>(shared.allocate(sz));
        a[0] = static_cast<unsigned char>(t);
        a[sz - 1] = static_cast<unsigned char>(r);
        b[0] = static_cast<unsigned char>(t);
        b[sz - 1] = static_cast<unsigned char>(r);
        local.deallocate(a, sz);
        shared.deallocate(b, sz);
      }
    });
  }
  for (auto& t : ts) t.join();
  const mem::BudgetSnapshot s1 = ledger();
  EXPECT_EQ(s1.arena_allocs - s0.arena_allocs, 2 * kThreads * kRounds);
  EXPECT_EQ(s1.frees - s0.frees, 2 * kThreads * kRounds);
}

}  // namespace
}  // namespace wlp
