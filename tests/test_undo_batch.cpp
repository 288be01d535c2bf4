// Driver-level coverage of the block-batched backup/undo layer:
//   * sparse-backup capacity overflow degrades into a clean sequential
//     fall-back (no exception escapes a pool worker),
//   * steady-state strip retries allocate nothing (pooled checkpoint buffer,
//     log segments kept across resets, no arena block handed out),
//   * the sliding-window memory budget controller reacts to the backups'
//     MEASURED footprint (memory_bytes) instead of a bytes-per-iteration
//     guess, a dense target's footprint is safe to poll while workers
//     append to their logs, and a binding budget over a dense target keeps
//     the measured peak inside it,
//   * ExecReport carries the measured Tb/Ta and LoopStatistics feeds them
//     into the cost model's overhead terms.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "wlp/core/adaptive.hpp"
#include "wlp/core/sliding_window.hpp"
#include "wlp/core/sparse_spec.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/mem/budget.hpp"

namespace wlp {
namespace {

TEST(BackupOverflow, SpeculationFallsBackSequentially) {
  ThreadPool pool(4);
  const long n = 2000;  // far more distinct writes than the backup can hold
  std::vector<double> state(8192, -1.0);
  // expected_writes = 8 -> 16-ish slots: guaranteed overflow.
  SparseSpecArray<double> sparse(state, pool.size(), 8, /*run_pd_test=*/true);
  SpecTarget* targets[] = {&sparse};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        sparse.begin_iteration(vpn, i);
        sparse.set(vpn, i, static_cast<std::size_t>(i), static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < n; ++i)
          sparse.data()[static_cast<std::size_t>(i)] = static_cast<double>(i);
        return n;
      });

  EXPECT_TRUE(r.backup_overflow);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, n);
  // The fall-back ran against the exact pre-loop state: every location holds
  // the sequential result, nothing was lost to the dropped records.
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], static_cast<double>(i)) << i;
  for (std::size_t i = static_cast<std::size_t>(n); i < state.size(); ++i)
    ASSERT_EQ(state[i], -1.0) << i;
}

TEST(BackupOverflow, StripDriverContainsOverflowToOneStrip) {
  ThreadPool pool(4);
  const long n = 1024, strip = 256;
  std::vector<double> state(4096, 0.0);
  // 200 expected writes -> 512 slots: room for one plain strip (~256 distinct
  // locations) but NOT for the burst strip below (4 per iteration = 1024).
  SparseSpecArray<double> sparse(state, pool.size(), 200, true);
  SpecTarget* targets[] = {&sparse};

  auto body = [&](long i, unsigned vpn) {
    sparse.begin_iteration(vpn, i);
    if (i >= 256 && i < 512) {
      // The overflowing strip: 4 writes per iteration = ~1024 distinct slots.
      for (long k = 0; k < 4; ++k)
        sparse.set(vpn, i, static_cast<std::size_t>(1024 + (i - 256) * 4 + k),
                   1.0);
    } else {
      sparse.set(vpn, i, static_cast<std::size_t>(i), 1.0);
    }
    return IterAction::kContinue;
  };
  auto seq_strip = [&](long base, long end) {
    for (long i = base; i < end; ++i) {
      if (i >= 256 && i < 512) {
        for (long k = 0; k < 4; ++k)
          sparse.data()[static_cast<std::size_t>(1024 + (i - 256) * 4 + k)] = 1.0;
      } else {
        sparse.data()[static_cast<std::size_t>(i)] = 1.0;
      }
    }
    return end;
  };

  const StripSpecReport r = strip_speculative_while(
      pool, n, strip, std::span<SpecTarget* const>(targets, 1), body, seq_strip);

  EXPECT_TRUE(r.exec.backup_overflow);
  EXPECT_EQ(r.strips_failed, 1);  // only the burst strip fell back
  EXPECT_EQ(r.strips_run, n / strip);
  EXPECT_EQ(r.exec.trip, n);
  for (long i = 0; i < 256; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], 1.0) << i;
  for (long i = 512; i < n; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], 1.0) << i;
  for (long i = 0; i < 1024; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(1024 + i)], 1.0) << i;
}

TEST(StripRetries, SteadyStateAllocatesNothing) {
  // Pin the allocation counters.  Across 64 strips the checkpoint buffer
  // is pooled and every log reset rewinds the kept segments (segment count
  // constant, no arena block handed out).
  ThreadPool pool(4);
  const long n = 64 * 256, strip = 256;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};
  // Warm every worker's log: one share per vpn opens its first segment.  A
  // worker the self-sized claims skip in the warm-up would otherwise open
  // it inside the measured run.
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

  // Warm-up run allocates the pooled buffers.
  const StripSpecReport warm = run_once();
  ASSERT_EQ(warm.strips_failed, 0);
  const UndoStats warm_stats = arr.undo_stats();
  const mem::BudgetSnapshot warm_mem = mem::Budget::process().snapshot();

  const StripSpecReport hot = run_once();
  ASSERT_EQ(hot.strips_failed, 0);
  const UndoStats hot_stats = arr.undo_stats();
  const mem::BudgetSnapshot hot_mem = mem::Budget::process().snapshot();

  EXPECT_EQ(hot_mem.arena_allocs - warm_mem.arena_allocs, 0);  // zero new
  EXPECT_EQ(hot_mem.slow_allocs - warm_mem.slow_allocs, 0);    // allocation
  EXPECT_EQ(hot_stats.segments, warm_stats.segments);  // segments reused
  EXPECT_EQ(hot_stats.checkpoints - warm_stats.checkpoints, n / strip);
  EXPECT_EQ(hot_stats.resets - warm_stats.resets, n / strip);
  // Data and pooled backup, plus the segments the last strip opened: which
  // workers claimed in it varies from run to run, but a strip's entries fit
  // one segment per worker.
  const std::size_t data_and_backup = 2 * static_cast<std::size_t>(n) * sizeof(double);
  const std::size_t segment =
      SpecArray<double>::kSegmentEntries * sizeof(IterEntry);
  EXPECT_GT(arr.memory_bytes(), data_and_backup);
  EXPECT_LE(arr.memory_bytes(), data_and_backup + pool.size() * segment);
}

TEST(WindowBudget, ControllerUsesMeasuredBackupBytes) {
  ThreadPool pool(4);
  const long n = 4000;
  std::vector<double> state(8192, 0.0);
  SparseSpecArray<double> sparse(state, pool.size(),
                                 static_cast<std::size_t>(n), true);
  SpecTarget* targets[] = {&sparse};

  WindowOptions opts;
  opts.window = 64;
  opts.min_window = 2;
  // Only the measured footprint drives the controller.  The budget is
  // small enough that the growing touched set must force the window down.
  opts.memory_budget = 2048;

  const WindowReport wr = sliding_window_speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        sparse.begin_iteration(vpn, i);
        sparse.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return n; }, opts);

  ASSERT_TRUE(wr.exec.pd_passed);
  ASSERT_FALSE(wr.exec.reexecuted_sequentially);
  EXPECT_EQ(wr.exec.trip, n);
  // The backup's live bytes blew through the budget early, so the measured
  // controller must have (a) observed it and (b) shrunk the window to the
  // floor.
  EXPECT_GT(wr.exec.peak_spec_bytes, opts.memory_budget / 2);
  EXPECT_EQ(wr.final_window, opts.min_window);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(state[static_cast<std::size_t>(i)], 1.0) << i;
}

TEST(WindowBudget, DenseFootprintPolledWhileWorkersAppend) {
  // The budgeted window polls the dense target's memory_bytes() at every
  // claim while the other workers append to their logs (this suite runs
  // under TSan).  The charge must be race-free and bounded: data + backup +
  // 8 bytes per element + one partly filled log segment per worker.
  ThreadPool pool(4);
  const long n = 1 << 15, exit_at = 20000;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), -1.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};

  WindowOptions opts;
  opts.window = 64;
  opts.min_window = 2;
  opts.memory_budget = 4u << 20;

  const WindowReport wr = sliding_window_speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), static_cast<double>(i));
        return i == exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] { return exit_at; }, opts);

  ASSERT_TRUE(wr.exec.pd_passed);
  ASSERT_FALSE(wr.exec.reexecuted_sequentially);
  EXPECT_EQ(wr.exec.trip, exit_at);
  // Every started iteration at or past the exit wrote once.
  EXPECT_EQ(wr.exec.undone_writes, wr.exec.started - exit_at);

  const std::size_t elems = static_cast<std::size_t>(n) * sizeof(double);
  const std::size_t seg_bytes =
      SpecArray<double>::kSegmentEntries * sizeof(std::uint64_t);
  EXPECT_GE(wr.exec.peak_spec_bytes, 2 * elems);  // data + backup
  EXPECT_LE(wr.exec.peak_spec_bytes,
            2 * elems + static_cast<std::size_t>(n) * sizeof(std::uint64_t) +
                pool.size() * seg_bytes);

  for (long i = 0; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)],
              i < exit_at ? static_cast<double>(i) : -1.0)
        << i;
}

TEST(WindowBudget, DenseTargetPeakStaysWithinBindingBudget) {
  // A binding budget over a plain dense target.  Data, backup and one 32 KiB
  // log segment pin 96 KiB, so occupancy x 2 crosses the 128 KiB budget:
  // the controller must clamp the window to its floor and keep the measured
  // peak inside the budget.  One worker, so the footprint only grows
  // between claims.
  ThreadPool pool(1);
  const long n = 4096, u = 512;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/false);
  SpecTarget* targets[] = {&arr};

  WindowOptions opts;
  opts.window = 64;
  opts.min_window = 2;
  opts.memory_budget = 128 * 1024;

  const WindowReport wr = sliding_window_speculative_while(
      pool, u, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), static_cast<double>(i) + 1.0);
        return IterAction::kContinue;
      },
      [&] { return u; }, opts);

  EXPECT_EQ(wr.exec.trip, u);
  EXPECT_FALSE(wr.exec.reexecuted_sequentially);

  // The measured peak never exceeded the budget, and it covers the dense
  // footprint (data + backup at least).
  EXPECT_LE(wr.exec.peak_spec_bytes, opts.memory_budget);
  EXPECT_GE(wr.exec.peak_spec_bytes, 2u * static_cast<std::size_t>(n) * sizeof(double));

  // The window halved down to its floor, and the cap was re-derived from
  // the MEASURED bytes.
  EXPECT_GT(wr.window_shrinks, 0);
  EXPECT_EQ(wr.final_window, opts.min_window);
  EXPECT_LT(wr.final_cap, opts.window);
  EXPECT_GT(wr.cap_bytes, 0u);

  for (long i = 0; i < u; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], static_cast<double>(i) + 1.0)
        << i;
  for (long i = u; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], 0.0) << i;
}

TEST(MeasuredOverheads, ReportsFeedCostModelTerms) {
  ThreadPool pool(4);
  const long n = 1 << 16, exit_at = 3 * (n / 4);
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  ASSERT_TRUE(r.pd_passed);
  // The run measured its own Tb and Ta.
  EXPECT_GT(r.checkpoint_ns, 0.0);
  EXPECT_GT(r.undo_ns, 0.0);

  // LoopStatistics accumulates them and observed_profile() forwards them as
  // measured_tb/measured_ta, which overhead_terms() prefers over the a/p
  // worst-case model.
  LoopStatistics stats;
  stats.record(r);
  EXPECT_GT(stats.mean_checkpoint_seconds(), 0.0);
  EXPECT_GT(stats.mean_undo_seconds(), 0.0);

  const double seconds_per_unit = 1e-9;  // express LoopTiming in nanoseconds
  const OverheadProfile o =
      stats.observed_profile(true, true, 1.0, seconds_per_unit);
  EXPECT_GT(o.measured_tb, 0.0);
  EXPECT_GT(o.measured_ta, 0.0);
  const OverheadTerms terms = overhead_terms(o, pool.size(), 4.0);
  EXPECT_DOUBLE_EQ(terms.t_b, o.measured_tb);
  // t_a = measured undo + the PD analysis a/p term.
  EXPECT_GE(terms.t_a, o.measured_ta);

  // Unmeasured profiles keep the model terms.
  OverheadProfile model = o;
  model.measured_tb = model.measured_ta = -1.0;
  const OverheadTerms mterms = overhead_terms(model, pool.size(), 4.0);
  const double a = static_cast<double>(model.accesses) * model.access_cost;
  EXPECT_DOUBLE_EQ(mterms.t_b, a / static_cast<double>(pool.size()));
}

}  // namespace
}  // namespace wlp
