#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "wlp/core/sliding_window.hpp"

namespace wlp {
namespace {

TEST(SlidingWindow, CoversRangeAndRecoversTrip) {
  ThreadPool pool(4);
  const long u = 3000, exit_at = 2100;
  const long window = 32;
  std::vector<std::atomic<int>> hit(u);
  const WindowReport wr = sliding_window_while(
      pool, u,
      [&](long i, unsigned) {
        hit[static_cast<std::size_t>(i)].fetch_add(1);
        return i == exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      window);
  EXPECT_EQ(wr.exec.method, Method::kSlidingWindow);
  EXPECT_EQ(wr.exec.trip, exit_at);
  for (long i = 0; i < exit_at; ++i)
    ASSERT_EQ(hit[static_cast<std::size_t>(i)].load(), 1) << i;
  for (long i = 0; i < u; ++i) ASSERT_LE(hit[static_cast<std::size_t>(i)].load(), 1);
  // Overshoot stays bounded by the window: nothing past the exit is issued
  // once the QUIT lands, and before that h - l <= w with l <= exit_at.
  EXPECT_LE(wr.exec.started, exit_at + window);
}

TEST(SlidingWindow, SpanNeverExceedsWindow) {
  ThreadPool pool(8);
  const WindowReport wr = sliding_window_while(
      pool, 5000, [](long, unsigned) { return IterAction::kContinue; }, 16);
  EXPECT_EQ(wr.exec.trip, 5000);
  EXPECT_LE(wr.max_span, 16);
  EXPECT_EQ(wr.final_window, 16);  // the plain window never moves
}

/// The speculative window over a real target: each iteration sets its own
/// element of a dense SpecArray with the PD test off.
WindowReport speculative_run(ThreadPool& pool, SpecArray<double>& arr, long n,
                          const WindowOptions& opts) {
  SpecTarget* targets[] = {&arr};
  return sliding_window_speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return n; }, opts);
}

TEST(SlidingWindow, BudgetShrinksWindow) {
  // The round pins the data and its backup, 2 x 16 000 B, from the first
  // claim on: past half of the 8 KiB budget, the window halves to its
  // floor.
  ThreadPool pool(4);
  const long n = 2000;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/false);
  WindowOptions opts;
  opts.window = 1024;
  opts.min_window = 2;
  opts.memory_budget = 8 * 1024;
  const WindowReport wr = speculative_run(pool, arr, n, opts);
  EXPECT_EQ(wr.exec.trip, n);
  EXPECT_FALSE(wr.exec.reexecuted_sequentially);
  // The controller must have pulled the window well below the initial 1024.
  EXPECT_GT(wr.window_shrinks, 0);
  EXPECT_LT(wr.final_window, 64);
  EXPECT_GE(wr.exec.peak_spec_bytes,
            2 * static_cast<std::size_t>(n) * sizeof(double));
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], 1.0) << i;
}

TEST(SlidingWindow, BudgetGrowsWindowWhenComfortable) {
  // Data, backup and at most one log segment (n entries) per worker,
  // 144 000 B, stay far below half of the 1 MiB budget: the window grows
  // past its start.
  ThreadPool pool(4);
  const long n = 3000;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/false);
  WindowOptions opts;
  opts.window = 4;
  opts.max_window = 4096;
  opts.memory_budget = 1 << 20;
  const WindowReport wr = speculative_run(pool, arr, n, opts);
  EXPECT_EQ(wr.exec.trip, n);
  EXPECT_GT(wr.window_grows, 0);
  EXPECT_GT(wr.final_window, 4);
}

TEST(SlidingWindow, EmptyRange) {
  ThreadPool pool(4);
  const WindowReport wr = sliding_window_while(
      pool, 0, [](long, unsigned) { return IterAction::kExit; }, 8);
  EXPECT_EQ(wr.exec.trip, 0);
  EXPECT_EQ(wr.exec.started, 0);
}

TEST(SlidingWindow, WindowOfZeroRunsToCompletion) {
  // A window below 1 runs as a window of 1: one iteration in flight.
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  const WindowReport wr = sliding_window_while(
      pool, 300,
      [&](long, unsigned) {
        runs.fetch_add(1);
        return IterAction::kContinue;
      },
      0);
  EXPECT_EQ(wr.exec.trip, 300);
  EXPECT_EQ(runs.load(), 300);
  EXPECT_LE(wr.max_span, 1);
  EXPECT_EQ(wr.final_window, 1);

  // The speculative window's options may say the same.
  SpecArray<double> arr(std::vector<double>(300, 0.0), pool.size(),
                        /*run_pd_test=*/false);
  WindowOptions opts;
  opts.window = 0;
  opts.min_window = 0;
  const WindowReport spec = speculative_run(pool, arr, 300, opts);
  EXPECT_EQ(spec.exec.trip, 300);
  EXPECT_LE(spec.max_span, 1);
}

// ---- speculative composition (Section 8.2 scheduler + Section 5 PD test) ---

TEST(SlidingWindowSpeculative, IndependentLoopPassesAndUndoesOvershoot) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 1500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), -1.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};
  WindowOptions opts;
  opts.window = 64;

  const WindowReport wr = sliding_window_speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        const auto idx = static_cast<std::size_t>((i * 7901) % n);
        arr.set(vpn, i, idx, static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] { return exit_at; }, opts);

  EXPECT_EQ(wr.exec.method, Method::kSlidingWindow);
  EXPECT_TRUE(wr.exec.pd_tested);
  EXPECT_TRUE(wr.exec.pd_passed);
  EXPECT_FALSE(wr.exec.reexecuted_sequentially);
  EXPECT_EQ(wr.exec.trip, exit_at);
  EXPECT_EQ(wr.exec.shadow_marks, exit_at);  // one write per valid iteration
  EXPECT_LE(wr.max_span, opts.window);       // stamp memory stayed bounded

  std::vector<double> expect(static_cast<std::size_t>(n), -1.0);
  for (long i = 0; i < exit_at; ++i)
    expect[static_cast<std::size_t>((i * 7901) % n)] = static_cast<double>(i);
  EXPECT_EQ(arr.data(), expect);
}

TEST(SlidingWindowSpeculative, FlowDependenceFailsAndFallsBack) {
  ThreadPool pool(4);
  const long n = 400;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

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
        auto& d = arr.data();
        for (long i = 1; i < n; ++i)
          d[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i - 1)] + 1.0;
        return n;
      });

  EXPECT_FALSE(wr.exec.pd_passed);
  EXPECT_TRUE(wr.exec.reexecuted_sequentially);
  EXPECT_EQ(wr.exec.trip, n);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], static_cast<double>(i)) << i;
}

TEST(SlidingWindowSpeculative, RetriesReuseTargetsCheaply) {
  // Repeated window-speculations against one SpecArray: the epoch-based
  // reset_marks() must keep every retry correct (no mark bleed-through).
  ThreadPool pool(4);
  const long n = 300;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  for (int round = 0; round < 5; ++round) {
    const WindowReport wr = sliding_window_speculative_while(
        pool, n, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          arr.set(vpn, i, static_cast<std::size_t>(i),
                  static_cast<double>(round));
          return IterAction::kContinue;
        },
        [&] { return n; });
    ASSERT_TRUE(wr.exec.pd_passed) << "round " << round;
    ASSERT_FALSE(wr.exec.reexecuted_sequentially) << "round " << round;
    ASSERT_EQ(wr.exec.shadow_marks, n) << "round " << round;
  }
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], 4.0);
}

TEST(SlidingWindow, WindowOfOneIsSequentialOrder) {
  ThreadPool pool(4);
  std::vector<long> order;
  const WindowReport wr = sliding_window_while(
      pool, 200,
      [&](long i, unsigned) {
        order.push_back(i);  // window 1 fully serializes iterations
        return IterAction::kContinue;
      },
      1);
  EXPECT_EQ(wr.exec.trip, 200);
  ASSERT_EQ(order.size(), 200u);
  for (long i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_LE(wr.max_span, 1);
}

}  // namespace
}  // namespace wlp
