// Multi-array speculation transactions (SpecTransaction, txn.hpp):
//   * the fused multi-array undo agrees with a per-element oracle on every
//     member,
//   * a target the fused passes cannot checkpoint is rejected up front,
//   * mixed dense+hash transactions survive concurrent writers, and two
//     overshot iterations on different workers writing one index pass the
//     trip-filtered PD test and are undone (the TSan job runs these under
//     Txn*),
//   * every driver schedule hands each worker its iterations in increasing
//     order, which the log tail walk relies on (TxnTailWalk),
//   * an AdaptiveSpecArray's hash overflow falls back to dense without
//     disturbing its siblings,
//   * cost_model::choose_backup picks the documented sides of the 1/6
//     crossover,
//   * steady-state strip retries over a 2-array transaction allocate
//     nothing (wlp.mem Budget deltas pinned to zero).
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
#include "wlp/core/speculative_strips.hpp"
#include "wlp/core/txn.hpp"
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
  // Three members with scattered, colliding writes, undone by the fused
  // transaction pass (one tail-walk unit per member); the per-element
  // oracle replays the same writes.  Every element and the count of
  // writes taken back must agree.
  ThreadPool pool(4);
  const std::size_t n = 1 << 14;
  const long iters = 4000, trip = 1700;

  SpecArray<long> a(std::vector<long>(n, -1), pool.size(), false);
  SpecArray<long> b(std::vector<long>(n, -2), pool.size(), false);
  SpecArray<long> c(std::vector<long>(n, -3), pool.size(), false);
  SpecTarget* targets[] = {&a, &b, &c};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 3));
  EXPECT_EQ(txn.fused_targets(), 3u);

  UndoOracle ra(n, -1), rb(n, -2), rc(n, -3);

  txn.begin(&pool);

  Xoshiro256 rng(0x5eedull);
  long overshot_writes = 0;
  for (long i = 0; i < iters; ++i) {
    // Iterations go round-robin over the workers' logs, in increasing
    // order per worker as every driver schedule guarantees.
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

  EXPECT_EQ(txn.undo_beyond(trip, &pool), overshot_writes);
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
  // without a checkpoint, so the transaction refuses it.
  struct Bare final : SpecTarget {
    bool shadowed() const override { return false; }
    PDVerdict analyze(ThreadPool&, long) const override { return {}; }
    void reset_marks() override {}
    void discard() override {}
  } bare;
  SpecArray<double> dense(std::vector<double>(64, 0.0), 1, false);
  SpecTarget* targets[] = {&dense, &bare};
  const std::span<SpecTarget* const> members(targets, 2);
  EXPECT_THROW(SpecTransaction txn(members), std::invalid_argument);
}

TEST(TxnFused, RestoreAllReturnsEveryMemberToEntryState) {
  ThreadPool pool(4);
  const std::size_t n = 1 << 12;
  SpecArray<double> a(std::vector<double>(n, 1.5), pool.size(), false);
  SpecArray<double> b(std::vector<double>(n, 2.5), pool.size(), false);
  std::vector<double> sparse_data(n, 3.5);
  SparseSpecArray<double> s(sparse_data, pool.size(), 256, false);
  SpecTarget* targets[] = {&a, &b, &s};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 3));

  txn.begin(&pool);
  for (long i = 0; i < 500; ++i) {
    const auto idx = static_cast<std::size_t>(i * 7 % n);
    a.set(0, i, idx, -1.0);
    b.set(0, i, idx, -2.0);
    s.set(0, i, static_cast<std::size_t>(i), -3.0);
  }
  txn.restore_all(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[i], 1.5) << i;
    ASSERT_EQ(b.data()[i], 2.5) << i;
    ASSERT_EQ(sparse_data[i], 3.5) << i;
  }
  // Logs cleared by the restore: nothing left to undo.
  EXPECT_EQ(txn.undo_beyond(0, &pool), 0);
}

TEST(TxnStress, MixedDenseHashConcurrentWriters) {
  // TSan coverage: two dense members take concurrent appends into every
  // worker's log; a hash member's record() races on its slot tags in the
  // same run.  Chunk 1 dynamic scheduling maximizes interleaving.
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

  SpecOptions opts;
  opts.doall.sched = Sched::kDynamic;
  opts.doall.chunk = 1;

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 3),
      [&](long i, unsigned vpn) {
        a.begin_iteration(vpn, i);
        b.begin_iteration(vpn, i);
        s.begin_iteration(vpn, i);
        // Write BEFORE testing the exit: every overshot iteration leaves
        // writes in all three members that the fused undo must take back.
        const auto idx = static_cast<std::size_t>(i);
        a.set(vpn, i, idx, static_cast<double>(i));
        b.set(vpn, i, idx, static_cast<double>(2 * i));
        s.set(vpn, i, idx, 1.0);
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] { return exit_at; }, opts);

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
  const long late = n - 6, later = n - 1;  // workers 2 and 3 under cyclic
  SpecArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1),
                    pool.size(), true);
  SpecArray<long> b(std::vector<long>(static_cast<std::size_t>(n), -2),
                    pool.size(), true);
  SpecTarget* targets[] = {&a, &b};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 2));
  txn.begin(&pool);

  std::atomic<bool> late_done{false};
  DoallOptions opts;
  opts.sched = Sched::kStaticCyclic;
  doall(pool, 0, n, [&](long i, unsigned vpn) {
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
  }, opts);

  EXPECT_TRUE(a.analyze(pool, trip).fully_parallel());
  EXPECT_TRUE(b.analyze(pool, trip).fully_parallel());
  // A trip past both writers would see the output dependence.
  EXPECT_FALSE(a.analyze(pool, n).fully_parallel());
  // Oracle: one entry per write by an iteration >= trip, in each array.
  EXPECT_EQ(txn.undo_beyond(trip, &pool), 2 * (n - trip));
  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], i < trip ? i : -1) << i;
    ASSERT_EQ(b.data()[static_cast<std::size_t>(i)], i < trip ? 2 * i : -2)
        << i;
  }
}

// ---- the tail walk's precondition, under every driver schedule -------------

// gtest prints a parameter without operator<< as a dump of its bytes, and
// gtest_discover_tests puts that dump into each ctest name, so the case is
// three 64-bit fields: no padding, no pointer.
enum class Driver : std::int64_t { kLoop, kStrip, kWindow };

struct TailWalkCase {
  Driver driver;
  std::int64_t sched;  ///< a Sched value
  std::int64_t chunk;
};

std::string tail_walk_name(const TailWalkCase& c) {
  static const char* const kDrivers[] = {"loop", "strip", "window"};
  static const char* const kScheds[] = {"dynamic", "cyclic", "block", "guided"};
  return std::string(kDrivers[static_cast<int>(c.driver)]) + "_" +
         kScheds[c.sched] + std::to_string(c.chunk);
}

class TxnTailWalk : public ::testing::TestWithParam<TailWalkCase> {};

TEST_P(TxnTailWalk, StateMatchesSequentialAndUndoneMatchesOracle) {
  // A two-array loop with a planted exit.  Each worker's log is walked from
  // its tail and the walk stops at the first entry below the trip, so a
  // worker that ever received an iteration below one it already ran would
  // leave an overshot write in place and break the byte comparison.
  ThreadPool pool(4);
  const long n = 4096, exit_at = 2999;
  const auto sched = static_cast<Sched>(GetParam().sched);
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
  switch (GetParam().driver) {
    case Driver::kLoop: {
      SpecOptions opts;
      opts.doall.sched = sched;
      opts.doall.chunk = GetParam().chunk;
      r = speculative_while(pool, n, members, body, seq_all, opts);
      break;
    }
    case Driver::kStrip: {
      SpecOptions opts;
      opts.doall.sched = sched;
      opts.doall.chunk = GetParam().chunk;
      r = strip_speculative_while(
              pool, n, 1024, members, body,
              [&](long lo, long hi) {
                return run_seq(a.data(), b.data(), lo, hi);
              },
              opts)
              .exec;
      break;
    }
    case Driver::kWindow: {
      WindowOptions opts;
      opts.window = 64;
      opts.sched = sched;
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

constexpr std::int64_t sched_id(Sched s) { return static_cast<std::int64_t>(s); }

INSTANTIATE_TEST_SUITE_P(
    TxnDrivers, TxnTailWalk,
    ::testing::Values(
        TailWalkCase{Driver::kLoop, sched_id(Sched::kDynamic), 0},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kDynamic), 1},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kDynamic), 16},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kStaticCyclic), 1},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kStaticCyclic), 16},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kStaticBlock), 1},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kStaticBlock), 16},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kGuided), 1},
        TailWalkCase{Driver::kLoop, sched_id(Sched::kGuided), 16},
        TailWalkCase{Driver::kStrip, sched_id(Sched::kDynamic), 0},
        TailWalkCase{Driver::kStrip, sched_id(Sched::kDynamic), 1},
        TailWalkCase{Driver::kStrip, sched_id(Sched::kGuided), 16},
        TailWalkCase{Driver::kWindow, sched_id(Sched::kDynamic), 1},
        TailWalkCase{Driver::kWindow, sched_id(Sched::kGuided), 1}),
    [](const auto& info) { return tail_walk_name(info.param); });

TEST(TxnAdaptive, PicksHashForSparseAndDenseForDenseTouches) {
  ThreadPool pool(2);
  const std::size_t n = 1 << 14;
  // Hint says ~0.4% of the array: well under theta -> hash.
  AdaptiveSpecArray<double> sparse(std::vector<double>(n, 0.0), pool.size(),
                                   64, false);
  EXPECT_EQ(sparse.backup_kind(), BackupKind::kHash);
  // Hint says every element: dense.
  AdaptiveSpecArray<double> dense(std::vector<double>(n, 0.0), pool.size(), n,
                                  false);
  EXPECT_EQ(dense.backup_kind(), BackupKind::kDense);

  // After a retry the tallied writes replace the hint: run the sparse one
  // through a dense-touch retry and watch it flip.
  SpecTarget* targets[] = {&sparse};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 1));
  txn.begin(&pool);  // decision from the hint: still hash
  EXPECT_EQ(sparse.backup_kind(), BackupKind::kHash);
  for (std::size_t i = 0; i < n; ++i)
    sparse.set(0, static_cast<long>(i % 64), i, 1.0);
  // The 64-hint table overflowed under n distinct writes; the data stayed
  // consistent (overflowing writes were skipped) and the next begin() both
  // re-decides from the measured n touches AND latches the overflow ban.
  EXPECT_TRUE(sparse.overflowed());
  txn.restore_all(&pool);
  txn.begin(&pool);
  EXPECT_EQ(sparse.backup_kind(), BackupKind::kDense);
}

TEST(TxnAdaptive, HashOverflowFallsBackDenseWithoutDisturbingSibling) {
  ThreadPool pool(4);
  const std::size_t n = 1 << 13;
  // A: tiny hash table, will overflow.  B: plain dense sibling in the same
  // transaction, whose state and backend must be unaffected.
  AdaptiveSpecArray<double> a_arr(std::vector<double>(n, 5.0), pool.size(), 16,
                                  false);
  AdaptiveSpecArray<double> b_arr(std::vector<double>(n, 6.0), pool.size(), n,
                                  false);
  ASSERT_EQ(a_arr.backup_kind(), BackupKind::kHash);
  ASSERT_EQ(b_arr.backup_kind(), BackupKind::kDense);
  SpecTarget* targets[] = {&a_arr, &b_arr};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 2));

  txn.begin(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    a_arr.set(0, 0, i, -1.0);  // blows through the 16-entry hint
    b_arr.set(0, 0, i, -2.0);
  }
  ASSERT_TRUE(txn.overflowed());

  // Failed speculation path: restore everything, then the next begin()
  // re-decides.  A is banned from hash for good; B keeps its backend.
  txn.restore_all(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a_arr.data()[i], 5.0) << i;
    ASSERT_EQ(b_arr.data()[i], 6.0) << i;
  }
  txn.begin(&pool);
  EXPECT_EQ(a_arr.backup_kind(), BackupKind::kDense);
  EXPECT_EQ(b_arr.backup_kind(), BackupKind::kDense);

  // The ban is permanent even if the touch set shrinks back to sparse.
  a_arr.set(0, 0, 3, -1.0);
  b_arr.set(0, 0, 3, -2.0);
  txn.undo_beyond(0, &pool);
  txn.begin(&pool);
  EXPECT_EQ(a_arr.backup_kind(), BackupKind::kDense);
}

TEST(TxnChooseBackup, CrossoverAndClamps) {
  const std::size_t n = 1 << 16;
  // Far below theta (1/6): hash.
  const BackupDecision sparse = choose_backup(n, n / 100);
  EXPECT_EQ(sparse.kind, BackupKind::kHash);
  EXPECT_NEAR(sparse.density, static_cast<double>(n / 100) / n, 1e-12);
  // Above it: dense.
  const BackupDecision dense = choose_backup(n, n / 2);
  EXPECT_EQ(dense.kind, BackupKind::kDense);
  // Touch counts are write tallies and may exceed n: still dense, density
  // just saturates past 1.
  EXPECT_EQ(choose_backup(n, 4 * n).kind, BackupKind::kDense);
  // Empty loop: nothing touched -> hash (a zero-entry table is free).
  EXPECT_EQ(choose_backup(n, 0).kind, BackupKind::kHash);

  // The crossover is the operation-cost model's fixed 1/6, and the
  // decision flips exactly there.
  EXPECT_DOUBLE_EQ(sparse.theta, 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(dense.theta, 1.0 / 6.0);
  EXPECT_EQ(choose_backup(n, n / 6).kind, BackupKind::kHash);
  EXPECT_EQ(choose_backup(n, n / 6 + 1).kind, BackupKind::kDense);
}

TEST(TxnSteadyState, TwoArrayStripRetriesAllocateNothing) {
  // The multi-array version of StripRetries.SteadyStateAllocatesNothing:
  // the strip driver keeps ONE SpecTransaction across strips, so a warm
  // 2-array loop must run every later strip with zero arena traffic, no new
  // log segments, and a constant budget-visible footprint.
  ThreadPool pool(4);
  const long n = 64 * 256, strip = 256;
  SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                      pool.size(), true);
  SpecTarget* targets[] = {&a, &b};
  // Static schedule: under kDynamic a worker that claims nothing in the
  // warm runs first-touches both shadows' segments inside the measured
  // one.  A cyclic schedule makes every worker mark in every strip.
  SpecOptions opts;
  opts.doall.sched = Sched::kStaticCyclic;

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
        [&](long, long end) { return end; }, opts);
  };

  // Two warm-up rounds: the second covers a worker that sat out the first
  // and would otherwise take its lazy arena allocation during the pinned
  // run.
  ASSERT_EQ(run_once().strips_failed, 0);
  const StripSpecReport warm = run_once();
  ASSERT_EQ(warm.strips_failed, 0);
  const std::size_t bytes_warm = a.memory_bytes() + b.memory_bytes();
  const UndoStats stats_warm = a.undo_stats();
  const mem::BudgetSnapshot mem_warm = mem::Budget::process().snapshot();

  const StripSpecReport hot = run_once();
  ASSERT_EQ(hot.strips_failed, 0);
  const UndoStats stats_hot = a.undo_stats();
  const mem::BudgetSnapshot mem_hot = mem::Budget::process().snapshot();

  EXPECT_EQ(a.memory_bytes() + b.memory_bytes(), bytes_warm);
  EXPECT_EQ(stats_hot.segments, stats_warm.segments);
  EXPECT_EQ(stats_hot.checkpoints - stats_warm.checkpoints, n / strip);
  EXPECT_EQ(stats_hot.resets - stats_warm.resets, n / strip);
  // The process-wide ledger agrees: nothing reached the OS in steady state.
  EXPECT_EQ(mem_hot.slow_allocs, mem_warm.slow_allocs);

  for (long i = 0; i < n; ++i) {
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], 1.0) << i;
    ASSERT_EQ(b.data()[static_cast<std::size_t>(i)], 2.0) << i;
  }
}

}  // namespace
}  // namespace wlp
