// The transaction-aware window/budget seam (DESIGN.md §10): the EWMA cap
// derivation, the footprint_changed() notification chain (target ->
// transaction -> controller), the mid-run hash->dense flip, the process-wide
// budget charge — plus one regression test per accounting bug this seam
// fixed (double-counted adaptive backends, stale overshoot after the
// sequential fallback, peak polled before the post-claim growth).
//
// Every suite here matches Window* so the CI TSan job picks it up.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "wlp/analysis/execute_plan.hpp"
#include "wlp/core/sliding_window.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/mem/budget.hpp"

namespace wlp {
namespace {

// ---- controller unit behavior ---------------------------------------------

TEST(WindowController, CapTracksMeasuredEwma) {
  WindowController ctl(2, 1 << 20, 8192);  // no seed: first sample is adopted
  // 4 in-flight iterations pinning 4 KiB -> 1 KiB/iteration measured.
  long w = ctl.adjust(64, 4, 4096);
  EXPECT_EQ(ctl.cap(), 8);  // 8192 / 1024
  EXPECT_EQ(ctl.cap_bytes(), 8192u);
  EXPECT_DOUBLE_EQ(ctl.bytes_per_iteration(), 1024.0);
  EXPECT_EQ(w, 8);  // clamped straight to the derived cap
  EXPECT_EQ(ctl.shrinks(), 1);

  // Occupancy at the budget: multiplicative decrease.
  w = ctl.adjust(w, 8, 8192);
  EXPECT_EQ(w, 4);
  EXPECT_EQ(ctl.shrinks(), 2);

  // Cheaper samples fold in smoothly and the cap re-derives upward.
  w = ctl.adjust(w, 4, 1024);  // sample 256 -> ewma 832
  EXPECT_EQ(ctl.cap(), 9);     // 8192 / 832
  EXPECT_EQ(w, 5);             // additive increase while comfortable
  EXPECT_EQ(ctl.grows(), 1);
}

TEST(WindowController, NotifiedStepAdoptsFreshSampleOutright) {
  WindowController notified(2, 1 << 20, 65536, 16);
  WindowController lagging(2, 1 << 20, 65536, 16);
  for (int i = 0; i < 3; ++i) {  // settle both EWMAs at 16 B/iteration
    notified.adjust(16, 8, 128);
    lagging.adjust(16, 8, 128);
  }
  ASSERT_EQ(notified.cap(), 4096);  // 65536 / 16

  // A backend flip multiplies the per-iteration footprint by 256.  The
  // notified controller must adopt the fresh sample in ONE decision; the
  // unnotified one smooths the jump away over 1/alpha claims.
  notified.footprint_changed();
  const long wn = notified.adjust(64, 4, 16384);  // sample 4096 B/iteration
  const long wl = lagging.adjust(64, 4, 16384);
  EXPECT_EQ(notified.cap(), 16);  // 65536 / 4096, no lag
  EXPECT_GT(lagging.cap(), notified.cap());
  EXPECT_LE(wn, 16);
  EXPECT_GT(wl, wn);
}

TEST(WindowController, ZeroBudgetNeverTouchesTheWindow) {
  WindowController ctl(2, 128, 0);
  EXPECT_EQ(ctl.cap(), 128);  // cap = max window, no budget to derive from
  EXPECT_EQ(ctl.adjust(64, 64, 1u << 30), 64);
  EXPECT_EQ(ctl.shrinks(), 0);
}

// ---- the flip notification chain (target -> transaction -> controller) ----

struct CountingListener final : FootprintListener {
  std::atomic<long> hits{0};
  void footprint_changed() noexcept override {
    hits.fetch_add(1, std::memory_order_relaxed);
  }
};

TEST(WindowTxn, FlipNotifiesTransactionAndListener) {
  const std::size_t n = 64;
  std::vector<double> init(n);
  for (std::size_t i = 0; i < n; ++i) init[i] = static_cast<double>(i);
  AdaptiveSpecArray<double> a(init, 1, 4, false);
  SpecTarget* targets[] = {&a};
  SpecTransaction txn(std::span<SpecTarget* const>(targets, 1));
  CountingListener listener;
  txn.set_footprint_listener(&listener);

  ASSERT_EQ(a.backup_kind(), BackupKind::kHash);
  txn.begin(nullptr);
  a.set(0, 5, 10, 99.0);
  a.set(0, 6, 20, 88.0);
  const std::size_t before = txn.memory_bytes();

  a.flip_to_dense();
  EXPECT_EQ(a.backup_kind(), BackupKind::kDense);
  EXPECT_EQ(listener.hits.load(), 1);    // forwarded through the transaction
  EXPECT_EQ(txn.footprint_epochs(), 1);  // and counted there
  EXPECT_GT(txn.memory_bytes(), before);  // the step jump is visible

  a.set(0, 7, 30, 77.0);  // post-flip write: dense-stamped

  // Fused undo across the flip boundary: iteration 6 restores through the
  // hash slot it was recorded in, iteration 7 through the dense log,
  // iteration 5 survives.
  const long undone = txn.undo_beyond(6, nullptr);
  EXPECT_EQ(undone, 2);
  EXPECT_EQ(a.data()[10], 99.0);
  EXPECT_EQ(a.data()[20], 20.0);
  EXPECT_EQ(a.data()[30], 30.0);
}

// ---- the acceptance scenario: budget + forced hash->dense flip mid-loop ---

TEST(WindowTxn, FlipMidLoopShrinksWindowAndRespectsBudget) {
  // Single-worker pool: flip_to_dense from inside a body is quiescent (no
  // sibling mid-iteration), which is the documented contract.
  ThreadPool pool(1);
  const long n = 4096, u = 512, flip_at = 8;
  AdaptiveSpecArray<double> a(
      std::vector<double>(static_cast<std::size_t>(n), 0.0), pool.size(), 8,
      false);
  ASSERT_EQ(a.backup_kind(), BackupKind::kHash);
  SpecTarget* targets[] = {&a};

  WindowOptions opts;
  opts.window = 64;
  opts.min_window = 2;
  // Above the post-flip dense base footprint (~3n doubles) but close enough
  // that occupancy * 2 crosses it: the controller must clamp immediately.
  opts.memory_budget = 128 * 1024;

  const WindowReport wr = sliding_window_speculative_while(
      pool, u, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        a.begin_iteration(vpn, i);
        if (i == flip_at) a.flip_to_dense();
        a.set(vpn, i, static_cast<std::size_t>(i), static_cast<double>(i) + 1.0);
        return IterAction::kContinue;
      },
      [&] { return u; }, opts);

  EXPECT_EQ(wr.exec.trip, u);
  EXPECT_FALSE(wr.exec.reexecuted_sequentially);
  EXPECT_EQ(a.backup_kind(), BackupKind::kDense);

  // The acceptance pin: measured peak never exceeded the budget, and it
  // covers the dense footprint the flip pinned (data + backup at least).
  EXPECT_LE(wr.peak_stamp_bytes, opts.memory_budget);
  EXPECT_GE(wr.peak_stamp_bytes, 2u * static_cast<std::size_t>(n) * sizeof(double));

  // The window halved down to its floor after the flip, and the cap was
  // re-derived from the MEASURED bytes (a static guess of 0 would have left
  // the cap at max_window).
  EXPECT_GT(wr.window_shrinks, 0);
  EXPECT_EQ(wr.final_window, opts.min_window);
  EXPECT_LT(wr.final_cap, opts.window);
  EXPECT_GT(wr.cap_bytes, 0u);

  for (long i = 0; i < u; ++i)
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], static_cast<double>(i) + 1.0)
        << i;
  for (long i = u; i < n; ++i)
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], 0.0) << i;
}

// ---- regression: stale overshoot after the sequential fallback ------------

TEST(WindowReexec, OvershotRecomputedAfterSequentialFallback) {
  // PD fails (flow dependence), the sequential rerun redefines the trip:
  // the overshoot must be recomputed against the NEW trip, not left at the
  // abandoned speculative value (which was 0 here — no exit fired).
  ThreadPool pool(4);
  const long n = 64, seq_trip = 10;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  // Window of 1 serializes the speculative bodies: the PD verdict still
  // fails (the marks record the cross-iteration read-then-write regardless
  // of execution order), but the dependent accesses never actually race —
  // this suite runs under TSan.
  WindowOptions opts;
  opts.window = 1;
  opts.min_window = 1;
  opts.max_window = 1;

  const WindowReport wr = sliding_window_speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i == 0) return IterAction::kContinue;
        const double prev = arr.get(vpn, static_cast<std::size_t>(i - 1));
        arr.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
        return IterAction::kContinue;
      },
      [&] {
        // The serial semantics exit early: every speculative body at or past
        // iteration 10 was overshoot, all rolled back by the restore.
        auto& d = arr.data();
        for (long i = 0; i < seq_trip; ++i)
          d[static_cast<std::size_t>(i)] = static_cast<double>(i);
        return seq_trip;
      },
      opts);

  EXPECT_FALSE(wr.exec.pd_passed);
  EXPECT_TRUE(wr.exec.reexecuted_sequentially);
  EXPECT_EQ(wr.exec.trip, seq_trip);
  EXPECT_EQ(wr.exec.started, n);
  EXPECT_EQ(wr.exec.overshot, n - seq_trip);  // stale value would be 0
  EXPECT_EQ(arr.data()[5], 5.0);
  EXPECT_EQ(arr.data()[20], 0.0);  // restored, then never re-executed
}

// ---- regression: peak missed the post-claim growth ------------------------

TEST(WindowPeak, PostClaimGrowthObserved) {
  // One worker claims one iteration at a time, and each claim polls the
  // footprint before that iteration's body runs: the last poll inside a
  // claim sees (u - 1) bodies' growth.  The last body's 64 bytes come after
  // the last claim, so only the post-join poll can report the full peak.
  ThreadPool pool(1);
  const long u = 256;
  std::atomic<std::size_t> live{0};
  WindowOptions opts;
  opts.window = 1024;
  opts.max_window = 4096;
  opts.memory_budget = 1u << 30;
  opts.live_bytes = [&] { return live.load(std::memory_order_relaxed); };

  const WindowReport wr = sliding_window_while(
      pool, u,
      [&](long, unsigned) {
        live.fetch_add(64, std::memory_order_relaxed);
        return IterAction::kContinue;
      },
      opts);

  EXPECT_EQ(wr.exec.trip, u);
  EXPECT_EQ(wr.exec.started, u);
  EXPECT_EQ(wr.peak_stamp_bytes, static_cast<std::size_t>(u) * 64);
  EXPECT_EQ(wr.exec.peak_spec_bytes, wr.peak_stamp_bytes);
}

// ---- regression: adaptive backend double-counting -------------------------

TEST(WindowAccounting, AdaptiveMemoryBytesReportsLiveBackend) {
  const std::size_t n = 4096;
  AdaptiveSpecArray<double> a(std::vector<double>(n, 1.0), 1, 4, false);
  ASSERT_EQ(a.backup_kind(), BackupKind::kHash);

  // Hash retry, nothing written: nothing pinned.  The old accounting
  // charged the idle dense side's data + stamps (~3n bytes) here, which
  // collapsed any budgeted window to its floor for no reason.
  EXPECT_EQ(a.memory_bytes(), 0u);

  a.set(0, 0, 7, 2.0);
  a.set(0, 1, 9, 3.0);
  a.set(0, 2, 11, 4.0);
  EXPECT_GT(a.memory_bytes(), 0u);
  EXPECT_LT(a.memory_bytes(), n * sizeof(double));

  // The first reset still decides from the expected_writes hint; from the
  // second on, the measured tally drives it.  Hammer one location so the
  // write tally crosses the density threshold WITHOUT overflowing the hash
  // table (the tally counts writes, the table stores distinct locations):
  // the next retry decides dense.
  a.reset_marks();
  ASSERT_EQ(a.backup_kind(), BackupKind::kHash);
  for (int k = 0; k < 3000; ++k) a.set(0, 3, 11, 5.0);
  a.reset_marks();
  ASSERT_EQ(a.backup_kind(), BackupKind::kDense);
  const std::size_t cp_elems = a.txn_checkpoint_begin();
  a.txn_checkpoint_span(0, cp_elems);
  // Dense retry pins data + backup (+ log); the hash side is empty and
  // contributes nothing.
  EXPECT_GE(a.memory_bytes(), 2 * n * sizeof(double));

  // Back to a hash retry: the dense data/log are no longer speculative
  // state, but the pooled backup buffer the dense retry allocated stays
  // held — exactly one n-element slice, not the 3n the old code charged.
  a.discard();
  a.set(0, 4, 13, 6.0);
  a.reset_marks();
  ASSERT_EQ(a.backup_kind(), BackupKind::kHash);
  EXPECT_GE(a.memory_bytes(), n * sizeof(double));
  EXPECT_LT(a.memory_bytes(), 2 * n * sizeof(double));
}

// ---- process-wide budget sharing ------------------------------------------

TEST(WindowProcessBudget, ConcurrentLoopsShareOneCeiling) {
  auto& budget = mem::Budget::process();
  const long base = budget.spec_bytes();
  const long foreign = 900 * 1024;

  ThreadPool pool(4);
  WindowOptions opts;
  opts.window = 64;
  opts.min_window = 2;
  opts.memory_budget = 1 << 20;
  opts.bytes_per_iteration = 64;
  opts.charge_process_budget = true;
  auto body = [](long, unsigned) { return IterAction::kContinue; };

  // A concurrent loop holds 900 KiB of the shared 1 MiB ceiling: this
  // loop's occupancy is tiny, but the process-wide SUM is not, so the
  // window must collapse to its floor anyway.
  budget.add_spec_bytes(foreign);
  const WindowReport crowded = sliding_window_while(pool, 2000, body, opts);
  EXPECT_EQ(crowded.exec.trip, 2000);
  EXPECT_GT(crowded.window_shrinks, 0);
  EXPECT_EQ(crowded.final_window, opts.min_window);
  // Our charge settled back to zero at release; the foreign charge remains.
  EXPECT_EQ(budget.spec_bytes(), base + foreign);
  budget.add_spec_bytes(-foreign);

  // Same loop with the ceiling to itself: comfortable, the window grows.
  const WindowReport alone = sliding_window_while(pool, 2000, body, opts);
  EXPECT_EQ(alone.exec.trip, 2000);
  EXPECT_GT(alone.final_window, crowded.final_window);
  EXPECT_EQ(budget.spec_bytes(), base);
}

// ---- transaction-aware strip control ---------------------------------------

TEST(WindowStrips, BudgetAdaptsStripLength) {
  ThreadPool pool(4);
  const long u = 512;
  const long strip = 128;

  auto make_body = [](SpecArray<double>& arr) {
    return [&arr](long i, unsigned vpn) {
      arr.begin_iteration(vpn, i);
      arr.set(vpn, i, static_cast<std::size_t>(i), static_cast<double>(i));
      return IterAction::kContinue;
    };
  };
  auto seq = [](long, long end) { return end; };

  // The dense footprint (~3n doubles) doubles past this budget: every
  // strip's poll halves the next one.
  {
    SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(u), 0.0),
                          pool.size(), false);
    SpecTarget* targets[] = {&arr};
    SpecOptions sopts;
    sopts.memory_budget = 16 * 1024;
    const StripSpecReport out = strip_speculative_while(
        pool, u, strip, std::span<SpecTarget* const>(targets, 1),
        make_body(arr), seq, sopts);
    EXPECT_EQ(out.exec.trip, u);
    EXPECT_GT(out.strip_shrinks, 0);
    EXPECT_LT(out.final_strip, strip);
    EXPECT_GE(out.exec.peak_spec_bytes,
              2u * static_cast<std::size_t>(u) * sizeof(double));
    for (long i = 0; i < u; ++i)
      ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], static_cast<double>(i));
  }

  // A comfortable budget leaves the strip at its configured length.
  {
    SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(u), 0.0),
                          pool.size(), false);
    SpecTarget* targets[] = {&arr};
    SpecOptions sopts;
    sopts.memory_budget = 1u << 30;
    const StripSpecReport out = strip_speculative_while(
        pool, u, strip, std::span<SpecTarget* const>(targets, 1),
        make_body(arr), seq, sopts);
    EXPECT_EQ(out.exec.trip, u);
    EXPECT_EQ(out.strip_shrinks, 0);
    EXPECT_EQ(out.final_strip, strip);
  }
}

}  // namespace
}  // namespace wlp

// ---- budgeted plan execution ----------------------------------------------

namespace wlp::ir {
namespace {

TEST(WindowPlan, BudgetedParallelBlocksMatchSequential) {
  // A[i] = R[i] * 3 — one parallel block whose write log grows monotonically
  // under a tiny budget: the interpreter must run it through the window
  // controller, report its decisions, and still produce the sequential
  // result exactly.
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 400;
  loop.body.push_back(
      assign_array("A", index(), bin('*', array("R", index()), cnst(3))));

  Env base;
  base.arrays["A"] = std::vector<double>(400, 0.0);
  base.arrays["R"] = std::vector<double>(400, 0.0);
  for (long i = 0; i < 400; ++i)
    base.arrays["R"][static_cast<std::size_t>(i)] = static_cast<double>(i % 7);

  Env seq = base, par = base;
  const long t1 = run_sequential(loop, seq);
  const ParallelPlan plan = make_plan(loop);
  PlanExecOptions opts;
  opts.memory_budget = 1024;
  opts.window = 8;
  opts.min_window = 2;
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, par, opts);

  EXPECT_EQ(ex.trip, t1);
  EXPECT_EQ(par.arrays.at("A"), seq.arrays.at("A"));
  EXPECT_GE(ex.window_runs, 1);
  EXPECT_GT(ex.window_peak_bytes, 0);
  EXPECT_GE(ex.window_shrinks, 1);  // the log outgrew the budget
  EXPECT_GE(ex.window_cap, opts.min_window);
  EXPECT_LE(ex.window_final, static_cast<long>(opts.window));
}

TEST(WindowPlan, UnbudgetedOverloadReportsNoWindowActivity) {
  ThreadPool pool(2);
  Loop loop;
  loop.max_iters = 50;
  loop.body.push_back(
      assign_array("A", index(), bin('+', array("R", index()), cnst(1))));
  Env env;
  env.arrays["A"] = std::vector<double>(50, 0.0);
  env.arrays["R"] = std::vector<double>(50, 2.0);
  const ParallelPlan plan = make_plan(loop);
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, env);
  EXPECT_EQ(ex.window_runs, 0);
  EXPECT_EQ(ex.window_shrinks, 0);
  EXPECT_EQ(ex.window_peak_bytes, 0);
}

}  // namespace
}  // namespace wlp::ir
