// The measured-footprint window/budget seam (DESIGN.md §10): the EWMA cap
// derivation, plus one regression test per accounting bug this seam fixed
// (stale overshoot after the sequential fallback, peak polled before the
// post-claim growth).  The overshoot rule is SpecRound::rollback's, so
// SpeculativeRollback.* pins it for the other two rollback drivers.
//
// Every suite here matches Window* so the CI TSan job picks it up.
#include <gtest/gtest.h>

#include <vector>

#include "wlp/core/sliding_window.hpp"
#include "wlp/core/sparse_spec.hpp"

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

TEST(WindowController, ZeroBudgetNeverTouchesTheWindow) {
  WindowController ctl(2, 128, 0);
  EXPECT_EQ(ctl.cap(), 128);  // cap = max window, no budget to derive from
  EXPECT_EQ(ctl.adjust(64, 64, 1u << 30), 64);
  EXPECT_EQ(ctl.shrinks(), 0);
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
  // round's footprint before that iteration's body runs: the last poll
  // inside a claim sees 255 touched slots.  The last body's slot lands
  // after the last claim, so the report's peak is validate's poll after
  // the join, which covers all 256.
  ThreadPool pool(1);
  const long u = 256;
  std::vector<double> state(static_cast<std::size_t>(u), 0.0);
  SparseSpecArray<double> sparse(state, pool.size(),
                                 static_cast<std::size_t>(u),
                                 /*run_pd_test=*/false);
  SpecTarget* targets[] = {&sparse};
  WindowOptions opts;
  opts.window = 1024;
  opts.max_window = 4096;
  opts.memory_budget = 1u << 30;

  const WindowReport wr = sliding_window_speculative_while(
      pool, u, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        sparse.begin_iteration(vpn, i);
        sparse.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return u; }, opts);

  EXPECT_EQ(wr.exec.trip, u);
  EXPECT_EQ(wr.exec.started, u);
  EXPECT_GT(wr.exec.peak_spec_bytes, 0u);
  EXPECT_EQ(wr.exec.peak_spec_bytes, sparse.memory_bytes());
  EXPECT_EQ(state[static_cast<std::size_t>(u - 1)], 1.0);
}

}  // namespace
}  // namespace wlp
