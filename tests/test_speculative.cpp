#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "wlp/core/speculative.hpp"

namespace wlp {
namespace {

/// Independent loop: A[perm[i]] = i, RV exit at `exit_at`.  The access
/// pattern is a permutation so the PD test must pass and the overshoot must
/// be undone.
TEST(Speculative, IndependentLoopPassesAndUndoesOvershoot) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 1500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), -1.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        // scrambled but bijective index
        const auto idx = static_cast<std::size_t>((i * 7901) % n);
        arr.set(vpn, i, idx, static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  EXPECT_TRUE(r.pd_passed);
  EXPECT_TRUE(r.pd_tested);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);

  // Exactly the iterations < exit_at are visible.
  std::vector<double> expect(static_cast<std::size_t>(n), -1.0);
  for (long i = 0; i < exit_at; ++i)
    expect[static_cast<std::size_t>((i * 7901) % n)] = static_cast<double>(i);
  EXPECT_EQ(arr.data(), expect);
}

/// Flow-dependent loop: A[i] = A[i-1] + 1.  The PD test must fail, all
/// state must be restored, and the sequential re-execution must produce the
/// exact sequential result.
TEST(Speculative, FlowDependenceFailsAndFallsBack) {
  ThreadPool pool(4);
  const long n = 500;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
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

  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, n);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], static_cast<double>(i)) << i;
}

/// Section 5.1: an exception during the speculative run is treated as an
/// invalid parallel execution — restore and run sequentially.
TEST(Speculative, ExceptionTriggersSequentialReexecution) {
  ThreadPool pool(4);
  const long n = 300;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), 99.0);
        if (i == 150) throw std::runtime_error("simulated fault");
        return IterAction::kContinue;
      },
      [&] {
        auto& d = arr.data();
        for (long i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = 7.0;
        return n;
      });

  EXPECT_TRUE(r.reexecuted_sequentially);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], 7.0) << i;
}

/// Output dependence (same location written by two iterations) without any
/// exposed read: the strict DOALL verdict fails (privatization would be
/// needed), so the driver falls back.
TEST(Speculative, OutputDependenceIsDetected) {
  ThreadPool pool(4);
  SpecArray<double> arr(std::vector<double>(10, 0.0), pool.size(), true);
  SpecTarget* targets[] = {&arr};

  const ExecReport r = speculative_while(
      pool, 100, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, 3, static_cast<double>(i));
        return IterAction::kContinue;
      },
      [&] {
        arr.data()[3] = 99.0;
        return 100L;
      });

  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(arr.data()[3], 99.0);
}

/// A SpecArray's write marks are its undo log's entries.  A read before
/// the iteration's own write is an exposed-read mark at that iteration
/// (A[i] = f(A[i]) still passes); a read after it is covered through the
/// undo log's tail and marks nothing; each round counts from zero.
TEST(Speculative, ReadAfterOwnWriteIsCoveredThroughTheUndoLog) {
  ThreadPool pool(4);
  const long n = 1000;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 1.0),
                        pool.size(), true);
  SpecTarget* targets[] = {&arr};
  for (int round = 0; round < 2; ++round) {
    const ExecReport r = speculative_while(
        pool, n, std::span<SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          const auto idx = static_cast<std::size_t>(i);
          arr.set(vpn, i, idx, arr.get(vpn, idx) + static_cast<double>(i));
          arr.set(vpn, i, idx, arr.get(vpn, idx) * 2.0);
          return IterAction::kContinue;
        },
        [&] {
          ADD_FAILURE() << "fell back in round " << round;
          return n;
        });
    EXPECT_TRUE(r.pd_passed) << round;
    EXPECT_FALSE(r.reexecuted_sequentially) << round;
    EXPECT_EQ(r.shadow_marks, 3 * n) << round;  // 2 writes + 1 exposed read
  }
  for (long i = 0; i < n; ++i) {
    const double once = (1.0 + static_cast<double>(i)) * 2.0;
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)],
              (once + static_cast<double>(i)) * 2.0) << i;
  }
}

/// Non-shadowed arrays skip the PD test but still get write logs and undo.
TEST(Speculative, UnshadowedArraySkipsPDButUndoes) {
  ThreadPool pool(4);
  const long n = 1000, exit_at = 600;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), -2.0),
                        pool.size(), /*run_pd_test=*/false);
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

  EXPECT_FALSE(r.pd_tested);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.shadow_marks, 0);  // no shadow, no instrumentation tax
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : -2.0);
}

/// Without the QUIT every iteration in [0, u) runs, and the round reports
/// Induction-1 (Fig. 2), not Induction-2.
TEST(Speculative, NoQuitRunIsLabelledInduction1) {
  ThreadPool pool(4);
  const long n = 1000, exit_at = 600;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), -2.0),
                        pool.size(), /*run_pd_test=*/false);
  SpecTarget* targets[] = {&arr};
  SpecOptions opts;
  opts.doall.use_quit = false;

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return exit_at; }, opts);

  EXPECT_EQ(r.method, Method::kInduction1);
  EXPECT_EQ(r.trip, exit_at);
  EXPECT_EQ(r.started, n);
  EXPECT_FALSE(r.reexecuted_sequentially);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : -2.0);

  opts.doall.use_quit = true;
  const ExecReport q = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] { return exit_at; }, opts);
  EXPECT_EQ(q.method, Method::kInduction2);
  EXPECT_EQ(q.trip, exit_at);
}

}  // namespace
}  // namespace wlp
