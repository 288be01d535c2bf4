#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "wlp/core/strategies.hpp"

namespace wlp {
namespace {

TEST(StripMined, TripExactAndOvershootBoundedByStrip) {
  ThreadPool pool(4);
  const long u = 10000, strip = 128, exit_at = 5000;
  std::atomic<long> runs{0};
  const ExecReport r = strip_mined_while(pool, u, strip, [&](long i, unsigned) {
    runs.fetch_add(1);
    return i == exit_at ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(r.method, Method::kStripMined);
  EXPECT_EQ(r.trip, exit_at);
  EXPECT_LE(r.overshot, strip);
  // Started: all complete strips + part of the exit strip.
  EXPECT_LE(r.started, ((exit_at / strip) + 1) * strip);
}

TEST(StripMined, NoExitRunsAllStrips) {
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  const ExecReport r = strip_mined_while(pool, 1000, 64, [&](long, unsigned) {
    runs.fetch_add(1);
    return IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 1000);
  EXPECT_EQ(runs.load(), 1000);
}

TEST(StripMined, StripLargerThanRange) {
  ThreadPool pool(4);
  const ExecReport r = strip_mined_while(pool, 50, 1000, [&](long i, unsigned) {
    return i == 20 ? IterAction::kExit : IterAction::kContinue;
  });
  EXPECT_EQ(r.trip, 20);
}

TEST(StampThreshold, FromEstimateScalesByConfidence) {
  const StampThreshold t = StampThreshold::from_estimate(1000, 0.9);
  EXPECT_EQ(t.value, 900);
  EXPECT_FALSE(t.should_stamp(899));
  EXPECT_TRUE(t.should_stamp(900));
  EXPECT_TRUE(t.should_stamp(1500));
}

TEST(StatsEnhanced, GoodEstimateUndoesOnlyStampedTail) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 1900;
  const StampThreshold thr = StampThreshold::from_estimate(exit_at, 0.9);  // 1710
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), false);
  SpecTarget* targets[] = {&arr};

  // RV shape: the work (and its write) happens BEFORE the error is
  // detected, so overshot iterations really do write — and must be undone
  // through their stamps.
  const ExecReport r = stats_enhanced_while(
      pool, n, thr, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn, bool stamped) {
        arr.begin_iteration(vpn, i);
        if (stamped) {
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        } else {
          arr.data()[static_cast<std::size_t>(i)] = 1.0;  // unstamped fast path
        }
        return i == exit_at ? IterAction::kExitAfter : IterAction::kContinue;
      },
      [&] { return exit_at + 1; });

  EXPECT_EQ(r.method, Method::kInduction2);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at + 1);
  EXPECT_EQ(r.undone_writes, r.overshot);  // every overshot write undone
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i <= exit_at ? 1.0 : 0.0) << i;
}

TEST(StatsEnhanced, BadEstimateFallsBackToSequential) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 100;  // far below the threshold
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), false);
  SpecTarget* targets[] = {&arr};
  const StampThreshold thr = StampThreshold::from_estimate(1900, 0.9);

  const ExecReport r = stats_enhanced_while(
      pool, n, thr, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn, bool stamped) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        if (stamped) {
          arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        } else {
          arr.data()[static_cast<std::size_t>(i)] = 1.0;
        }
        return IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < exit_at; ++i)
          arr.data()[static_cast<std::size_t>(i)] = 1.0;
        return exit_at;
      });

  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : 0.0) << i;
}

/// Section 5.1 through the stamping-threshold driver: a body exception is a
/// failed speculation.  Nothing escapes, the full restore also undoes the
/// unstamped writes below the threshold, and the sequential re-run (which
/// exits where the parallel body faulted) defines the state.
TEST(StatsEnhanced, ExceptionRollsBackAndReexecutes) {
  ThreadPool pool(4);
  const long n = 2000, throw_at = 1000;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), false);
  SpecTarget* targets[] = {&arr};
  const StampThreshold thr = StampThreshold::from_estimate(n, 0.9);

  ExecReport r;
  ASSERT_NO_THROW(r = stats_enhanced_while(
                      pool, n, thr, std::span<SpecTarget* const>(targets, 1),
                      [&](long i, unsigned vpn, bool stamped) {
                        arr.begin_iteration(vpn, i);
                        if (stamped) {
                          arr.set(vpn, i, static_cast<std::size_t>(i), 99.0);
                        } else {
                          arr.data()[static_cast<std::size_t>(i)] = 99.0;
                        }
                        if (i == throw_at) throw std::runtime_error("fault");
                        return IterAction::kContinue;
                      },
                      [&] {
                        for (long i = 0; i < throw_at; ++i)
                          arr.data()[static_cast<std::size_t>(i)] = 7.0;
                        return throw_at;
                      }));

  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, throw_at);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(arr.data()[static_cast<std::size_t>(i)], i < throw_at ? 7.0 : 0.0)
        << i;
}

/// A shadowed target gets the PD test under the stamping threshold too:
/// a[i] = a[i+1] + 1 reads in iteration i what iteration i+1 writes, so the
/// verdict fails and the loop re-executes, whatever order the workers'
/// blocks happened to run in.
TEST(StatsEnhanced, ShadowedAntiDependenceFailsPDAndReexecutes) {
  ThreadPool pool(4);
  const long n = 2000;
  std::vector<double> init(static_cast<std::size_t>(n + 1));
  for (long i = 0; i <= n; ++i)
    init[static_cast<std::size_t>(i)] = static_cast<double>(i);
  SpecArray<double> arr(init, pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};
  auto sequential = [n](std::vector<double>& d) {
    for (long i = 0; i < n; ++i)
      d[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i + 1)] + 1.0;
    return n;
  };

  const ExecReport r = stats_enhanced_while(
      pool, n, StampThreshold::from_estimate(n, 0.9),
      std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn, bool) {
        // Stamping below the threshold too is always safe, and only the
        // stamped path marks the shadow.
        arr.begin_iteration(vpn, i);
        const double next = arr.get(vpn, static_cast<std::size_t>(i + 1));
        arr.set(vpn, i, static_cast<std::size_t>(i), next + 1.0);
        return IterAction::kContinue;
      },
      [&] { return sequential(arr.data()); });

  EXPECT_TRUE(r.pd_tested);
  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, n);
  std::vector<double> expect = init;
  sequential(expect);
  EXPECT_EQ(arr.data(), expect);
}

// The sequential rerun after a rollback redefines the trip, and the
// overshoot is recounted against it: every body started at or past the
// sequential trip was rolled back.  One worker runs the dependent bodies
// in order, so they never race; the PD test fails all the same.
TEST(SpeculativeRollback, OvershotCountsAgainstTheSequentialTrip) {
  ThreadPool pool(1);
  const long n = 64, seq_trip = 10;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};
  const std::span<SpecTarget* const> ts(targets, 1);
  auto body = [&](long i, unsigned vpn) {
    arr.begin_iteration(vpn, i);
    if (i == 0) return IterAction::kContinue;
    const double prev = arr.get(vpn, static_cast<std::size_t>(i - 1));
    arr.set(vpn, i, static_cast<std::size_t>(i), prev + 1.0);
    return IterAction::kContinue;
  };
  auto sequential = [&] {
    for (long i = 0; i < seq_trip; ++i)
      arr.data()[static_cast<std::size_t>(i)] = static_cast<double>(i);
    return seq_trip;
  };

  const ExecReport whole = speculative_while(pool, n, ts, body, sequential);
  const ExecReport stamped = stats_enhanced_while(
      pool, n, StampThreshold{0}, ts,
      [&](long i, unsigned vpn, bool) { return body(i, vpn); }, sequential);
  for (const ExecReport& r : {whole, stamped}) {
    EXPECT_FALSE(r.pd_passed);
    EXPECT_TRUE(r.reexecuted_sequentially);
    EXPECT_EQ(r.trip, seq_trip);
    EXPECT_EQ(r.started, n);
    EXPECT_EQ(r.overshot, n - seq_trip);
  }
  EXPECT_EQ(arr.data()[5], 5.0);
  EXPECT_EQ(arr.data()[20], 0.0);  // restored, then never re-executed
}

TEST(Hedge, ParallelWinsWhenSpeculationSucceeds) {
  const HedgeOutcome h = one_processor_hedge(
      [] {
        ExecReport r;
        r.trip = 50;
        return r;
      },
      [] { return 50L; });
  EXPECT_TRUE(h.parallel_won);
  EXPECT_EQ(h.parallel.trip, h.sequential_trip);
}

TEST(Hedge, SequentialWinsOnFailedSpeculation) {
  const HedgeOutcome h = one_processor_hedge(
      [] {
        ExecReport r;
        r.reexecuted_sequentially = true;
        r.trip = 50;
        return r;
      },
      [] { return 50L; });
  EXPECT_FALSE(h.parallel_won);
}

}  // namespace
}  // namespace wlp
