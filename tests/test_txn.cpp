// The SpecRound's fused multi-array passes (spec_round.hpp):
//   * the fused multi-array undo agrees with a per-element oracle on every
//     target,
//   * a target the fused passes cannot checkpoint is rejected up front,
//   * mixed dense+hash rounds survive concurrent writers, and two
//     overshot iterations on different workers writing one index pass the
//     trip-filtered PD test and are undone (the TSan job runs these under
//     Txn*),
//   * every driver (whole loop, strips, window) hands each worker its
//     iterations in increasing order, which the log tail walk relies on
//     (TxnTailWalk),
//   * steady-state strip retries over a 2-array round allocate nothing
//     (wlp.mem Budget deltas pinned to zero).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "wlp/core/sliding_window.hpp"
#include "wlp/core/sparse_spec.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/spec_round.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {
namespace {

/// Per-element oracle for one array: replays the writes sequentially, then
/// sends every location some iteration >= trip wrote back to `pre`.
struct UndoOracle {
  std::vector<long> data;
  std::vector<long> max_writer;

  UndoOracle(std::size_t n, long pre) : data(n, pre), max_writer(n, -1) {}
  void write(long iter, std::size_t idx, long v) {
    data[idx] = v;
    max_writer[idx] = std::max(max_writer[idx], iter);
  }
  void undo(long trip, long pre) {
    for (std::size_t i = 0; i < data.size(); ++i)
      if (max_writer[i] >= trip) data[i] = pre;
  }
};

TEST(TxnFused, MultiArrayUndoMatchesPerElementOracle) {
  // Three targets with scattered, colliding writes, undone by the round's
  // fused pass (one tail-walk unit per target and stripe); the per-element
  // oracle replays the same writes.  Every element and the count of
  // writes taken back must agree.
  ThreadPool pool(4);
  const std::size_t n = 1 << 14;
  const long iters = 4000, trip = 1700;

  SpecArray<long> a(std::vector<long>(n, -1), pool.size(), false);
  SpecArray<long> b(std::vector<long>(n, -2), pool.size(), false);
  SpecArray<long> c(std::vector<long>(n, -3), pool.size(), false);
  SpecTarget* targets[] = {&a, &b, &c};
  ExecReport r;
  SpecRound round(pool, std::span<SpecTarget* const>(targets, 3), r);

  UndoOracle ra(n, -1), rb(n, -2), rc(n, -3);

  round.begin();

  Xoshiro256 rng(0x5eedull);
  long overshot_writes = 0;
  for (long i = 0; i < iters; ++i) {
    // Iterations go round-robin over the workers' logs, in increasing
    // order per worker as every driver guarantees.
    const auto vpn = static_cast<unsigned>(i % pool.size());
    const auto idx = static_cast<std::size_t>(rng() % n);
    a.set(vpn, i, idx, i);
    b.set(vpn, i, idx, 10 * i);
    ra.write(i, idx, i);
    rb.write(i, idx, 10 * i);
    const auto cidx = static_cast<std::size_t>(rng() % n);
    c.set(vpn, i, cidx, -i);
    rc.write(i, cidx, -i);
    if (i >= trip) overshot_writes += 3;
  }

  round.commit(trip);
  EXPECT_EQ(r.undone_writes, overshot_writes);
  ra.undo(trip, -1);
  rb.undo(trip, -2);
  rc.undo(trip, -3);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[i], ra.data[i]) << i;
    ASSERT_EQ(b.data()[i], rb.data[i]) << i;
    ASSERT_EQ(c.data()[i], rc.data[i]) << i;
  }
}

TEST(TxnShape, TargetWithNeitherIndexNorSlotsIsRejected) {
  // The fused passes are the only checkpoint/undo a target has: one that
  // reports neither a dense checkpoint nor sparse slots would silently run
  // without a checkpoint, so the round refuses it.
  struct Bare final : SpecTarget {
    bool shadowed() const override { return false; }
    PDVerdict analyze(ThreadPool&, long) const override { return {}; }
    void reset_marks() override {}
    void discard() override {}
  } bare;
  ThreadPool pool(1);
  SpecArray<double> dense(std::vector<double>(64, 0.0), 1, false);
  SpecTarget* targets[] = {&dense, &bare};
  const std::span<SpecTarget* const> members(targets, 2);
  ExecReport r;
  EXPECT_THROW(SpecRound round(pool, members, r), std::invalid_argument);
}

TEST(TxnFused, RestoreAllReturnsEveryMemberToEntryState) {
  ThreadPool pool(4);
  const std::size_t n = 1 << 12;
  SpecArray<double> a(std::vector<double>(n, 1.5), pool.size(), false);
  SpecArray<double> b(std::vector<double>(n, 2.5), pool.size(), false);
  std::vector<double> sparse_data(n, 3.5);
  SparseSpecArray<double> s(sparse_data, pool.size(), 256, false);
  SpecTarget* targets[] = {&a, &b, &s};
  ExecReport r;
  SpecRound round(pool, std::span<SpecTarget* const>(targets, 3), r);

  round.begin();
  for (long i = 0; i < 500; ++i) {
    const auto idx = static_cast<std::size_t>(i * 7 % n);
    a.set(0, i, idx, -1.0);
    b.set(0, i, idx, -2.0);
    s.set(0, i, static_cast<std::size_t>(i), -3.0);
  }
  EXPECT_EQ(round.rollback([] { return 0L; }), 0);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[i], 1.5) << i;
    ASSERT_EQ(b.data()[i], 2.5) << i;
    ASSERT_EQ(sparse_data[i], 3.5) << i;
  }
  // Logs cleared by the restore: nothing left to undo.
  round.commit(0);
  EXPECT_EQ(r.undone_writes, 0);
}

TEST(TxnStress, MixedDenseHashConcurrentWriters) {
  // TSan coverage: two dense targets take concurrent appends into every
  // worker's log; a hash target's record() races on its slot tags in the
  // same run.
  ThreadPool pool(4);
  const long n = 1 << 14;
  const long exit_at = 4096;
  SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  std::vector<double> sdata(static_cast<std::size_t>(n), 0.0);
  SparseSpecArray<double> s(sdata, pool.size(), static_cast<std::size_t>(n),
                            true);
  SpecTarget* targets[] = {&a, &b, &s};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 3),
      [&](long i, unsigned vpn) {
        a.begin_iteration(vpn, i);
        b.begin_iteration(vpn, i);
        s.begin_iteration(vpn, i);
        // Write BEFORE testing the exit: every overshot iteration leaves
        // writes in all three targets that the fused undo must take back.
        const auto idx = static_cast<std::size_t>(i);
        a.set(vpn, i, idx, static_cast<double>(i));
        b.set(vpn, i, idx, static_cast<double>(2 * i));
        s.set(vpn, i, idx, 1.0);
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] { return exit_at; });

  ASSERT_TRUE(r.pd_passed);
  ASSERT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  for (long i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(a.data()[idx], i < exit_at ? static_cast<double>(i) : 0.0) << i;
    ASSERT_EQ(b.data()[idx], i < exit_at ? static_cast<double>(2 * i) : 0.0)
        << i;
  }
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(sdata[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : 0.0)
        << i;
}

TEST(TxnStress, OvershotCollisionOnTwoWorkersPassesPDAndIsUndone) {
  // Concurrent appends, then one fused undo.  Two overshot iterations on
  // different workers write ONE index: the trip-filtered PD test accepts
  // that (both writers are past the trip), so the index sits in two logs
  // and the array's single undo unit restores it from one thread.  The
  // handshake orders the two data stores, so TSan sees no race.
  ThreadPool pool(4);
  const long n = 4096, trip = 3000;
  const long late = n - 6, later = n - 1;  // workers 2 and 3: i mod 4
  SpecArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1),
                    pool.size(), true);
  SpecArray<long> b(std::vector<long>(static_cast<std::size_t>(n), -2),
                    pool.size(), true);
  SpecTarget* targets[] = {&a, &b};
  ExecReport r;
  SpecRound round(pool, std::span<SpecTarget* const>(targets, 2), r);
  round.begin();

  std::atomic<bool> late_done{false};
  // A fixed owner per iteration: worker vpn runs i = vpn, vpn + p, ...
  pool.parallel([&](unsigned vpn) {
    for (long i = vpn; i < n; i += pool.size()) {
      a.begin_iteration(vpn, i);
      b.begin_iteration(vpn, i);
      auto idx = static_cast<std::size_t>(i);
      if (i == later) {
        while (!late_done.load(std::memory_order_acquire)) std::this_thread::yield();
        idx = static_cast<std::size_t>(late);
      }
      a.set(vpn, i, idx, i);
      b.set(vpn, i, idx, 2 * i);
      if (i == late) late_done.store(true, std::memory_order_release);
    }
  });

  EXPECT_TRUE(a.analyze(pool, trip).fully_parallel());
  EXPECT_TRUE(b.analyze(pool, trip).fully_parallel());
  // A trip past both writers would see the output dependence.
  EXPECT_FALSE(a.analyze(pool, n).fully_parallel());
  // Oracle: one entry per write by an iteration >= trip, in each array.
  round.commit(trip);
  EXPECT_EQ(r.undone_writes, 2 * (n - trip));
  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], i < trip ? i : -1) << i;
    ASSERT_EQ(b.data()[static_cast<std::size_t>(i)], i < trip ? 2 * i : -2)
        << i;
  }
}

// ---- the tail walk's precondition, under every driver -----------------------

// gtest prints a parameter without operator<< as a dump of its bytes, and
// gtest_discover_tests puts that dump into each ctest name, so the case is
// one 64-bit field: no padding, no pointer.
enum class Driver : std::int64_t { kLoop, kStrip, kWindow };

class TxnTailWalk : public ::testing::TestWithParam<Driver> {};

TEST_P(TxnTailWalk, StateMatchesSequentialAndUndoneMatchesOracle) {
  // A two-array loop with a planted exit.  Each worker's log is walked from
  // its tail and the walk stops at the first entry below the trip, so a
  // worker that ever received an iteration below one it already ran would
  // leave an overshot write in place and break the byte comparison.
  ThreadPool pool(4);
  const long n = 4096, exit_at = 2999;
  const auto slot = [](long i) {
    return static_cast<std::size_t>((i * 7919) & (n - 1));  // a permutation
  };
  const auto writes_of = [](long i) { return i % 2 == 0 ? 3L : 2L; };
  // Iteration i writes a[slot(i)] (twice when i is even) and b[slot(i)];
  // it exits before any write at exit_at.
  const auto run_seq = [&](std::vector<long>& a, std::vector<long>& b,
                           long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      if (i == exit_at) return i;
      a[slot(i)] = i;
      if (writes_of(i) == 3) a[slot(i)] = i + n;
      b[slot(i)] = -i;
    }
    return hi;
  };

  std::vector<long> seq_a(n, -1), seq_b(n, -2);
  ASSERT_EQ(run_seq(seq_a, seq_b, 0, n), exit_at);

  SpecArray<long> a(std::vector<long>(n, -1), pool.size(), true);
  SpecArray<long> b(std::vector<long>(n, -2), pool.size(), true);
  SpecTarget* targets[] = {&a, &b};
  const std::span<SpecTarget* const> members(targets, 2);
  std::vector<std::atomic<char>> ran(n);
  auto body = [&](long i, unsigned vpn) {
    a.begin_iteration(vpn, i);
    b.begin_iteration(vpn, i);
    if (i == exit_at) return IterAction::kExit;
    ran[static_cast<std::size_t>(i)].store(1, std::memory_order_relaxed);
    a.set(vpn, i, slot(i), i);
    if (writes_of(i) == 3) a.set(vpn, i, slot(i), i + n);
    b.set(vpn, i, slot(i), -i);
    return IterAction::kContinue;
  };
  auto seq_all = [&] { return run_seq(a.data(), b.data(), 0, n); };

  ExecReport r;
  switch (GetParam()) {
    case Driver::kLoop:
      r = speculative_while(pool, n, members, body, seq_all);
      break;
    case Driver::kStrip:
      r = strip_speculative_while(pool, n, 1024, members, body,
                                  [&](long lo, long hi) {
                                    return run_seq(a.data(), b.data(), lo, hi);
                                  })
              .exec;
      break;
    case Driver::kWindow: {
      WindowOptions opts;
      opts.window = 64;
      r = sliding_window_speculative_while(pool, n, members, body, seq_all,
                                           opts)
              .exec;
      break;
    }
  }

  ASSERT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  EXPECT_EQ(a.data(), seq_a);
  EXPECT_EQ(b.data(), seq_b);
  // Oracle: every write by an iteration past the exit that actually ran.
  // (The strip driver's logs hold only the exit strip, and iterations of
  // later strips never run.)
  long overshot_writes = 0;
  for (long i = exit_at + 1; i < n; ++i)
    if (ran[static_cast<std::size_t>(i)].load(std::memory_order_relaxed))
      overshot_writes += writes_of(i);
  EXPECT_EQ(r.undone_writes, overshot_writes);
}

std::string driver_name(const ::testing::TestParamInfo<Driver>& info) {
  static const char* const kNames[] = {"loop", "strip", "window"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(TxnDrivers, TxnTailWalk,
                         ::testing::Values(Driver::kLoop, Driver::kStrip,
                                           Driver::kWindow),
                         driver_name);

TEST(TxnSteadyState, TwoArrayStripRetriesAllocateNothing) {
  // The multi-array version of StripRetries.SteadyStateAllocatesNothing:
  // the strip driver keeps ONE SpecRound across strips, so a warm
  // 2-array loop must run every later strip with zero arena traffic, no new
  // log segments, and a footprint bounded by data, backup and one open
  // segment per worker.
  ThreadPool pool(4);
  const long n = 64 * 256, strip = 256;
  SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  SpecTarget* targets[] = {&a, &b};
  // Warm every worker's logs: one share per vpn opens their first
  // segments.  A worker the self-sized claims skip in the warm runs would
  // otherwise open them inside the measured one.
  pool.parallel([&](unsigned vpn) {
    a.begin_iteration(vpn, 0);
    b.begin_iteration(vpn, 0);
    a.set(vpn, 0, vpn, 1.0);
    b.set(vpn, 0, vpn, 2.0);
  });

  auto run_once = [&] {
    return strip_speculative_while(
        pool, n, strip, std::span<SpecTarget* const>(targets, 2),
        [&](long i, unsigned vpn) {
          a.begin_iteration(vpn, i);
          b.begin_iteration(vpn, i);
          a.set(vpn, i, static_cast<std::size_t>(i), 1.0);
          b.set(vpn, i, static_cast<std::size_t>(i), 2.0);
          return IterAction::kContinue;
        },
        [&](long, long end) { return end; });
  };

  ASSERT_EQ(run_once().strips_failed, 0);
  const StripSpecReport warm = run_once();
  ASSERT_EQ(warm.strips_failed, 0);
  const UndoStats stats_warm = a.undo_stats();
  const mem::BudgetSnapshot mem_warm = mem::Budget::process().snapshot();

  const StripSpecReport hot = run_once();
  ASSERT_EQ(hot.strips_failed, 0);
  const UndoStats stats_hot = a.undo_stats();
  const mem::BudgetSnapshot mem_hot = mem::Budget::process().snapshot();

  // The process-wide ledger: no arena block handed out, nothing reached
  // the OS in steady state.
  EXPECT_EQ(mem_hot.arena_allocs - mem_warm.arena_allocs, 0);
  EXPECT_EQ(mem_hot.slow_allocs - mem_warm.slow_allocs, 0);
  EXPECT_EQ(stats_hot.segments, stats_warm.segments);
  EXPECT_EQ(stats_hot.checkpoints - stats_warm.checkpoints, n / strip);
  EXPECT_EQ(stats_hot.resets - stats_warm.resets, n / strip);
  // Both arrays' data and pooled backups, plus the segments the last strip
  // opened: which workers claimed in it varies from run to run, but a
  // strip's entries fit one segment per worker and array.
  const std::size_t data_and_backup = 2 * 2 * static_cast<std::size_t>(n) * sizeof(double);
  const std::size_t segment =
      SpecArray<double>::kSegmentEntries * sizeof(IterEntry);
  const std::size_t bytes = a.memory_bytes() + b.memory_bytes();
  EXPECT_GT(bytes, data_and_backup);
  EXPECT_LE(bytes, data_and_backup + 2 * pool.size() * segment);

  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], 1.0) << i;
    ASSERT_EQ(b.data()[static_cast<std::size_t>(i)], 2.0) << i;
  }
}

}  // namespace
}  // namespace wlp
