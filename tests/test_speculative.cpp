#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "wlp/core/sliding_window.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/support/prng.hpp"

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

  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return exit_at; }, /*use_quit=*/false);

  EXPECT_EQ(r.method, Method::kInduction1);
  EXPECT_EQ(r.trip, exit_at);
  EXPECT_EQ(r.started, n);
  EXPECT_FALSE(r.reexecuted_sequentially);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(arr.data()[static_cast<std::size_t>(i)], i < exit_at ? 1.0 : -2.0);

  const ExecReport q = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] { return exit_at; });
  EXPECT_EQ(q.method, Method::kInduction2);
  EXPECT_EQ(q.trip, exit_at);
}

/// One clock pair per timed step: the round's checkpoint and undo times go
/// to the ExecReport and to the wlp.undo.* counters (what bench_e2e's
/// core.checkpoint_ms and core.undo_ms read), so the two agree exactly.
TEST(Speculative, RoundTimesFeedReportAndUndoCounters) {
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Registry& reg = obs::Registry::instance();
  const obs::Counter& cp = reg.counter("wlp.undo.checkpoint_ns");
  const obs::Counter& undo = reg.counter("wlp.undo.restore_ns");
  const std::uint64_t cp0 = cp.value(), undo0 = undo.value();

  ThreadPool pool(4);
  const long n = 128 * 1024, exit_at = n / 2;
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/false);
  SpecTarget* targets[] = {&arr};
  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        // Write before the exit test, so the overshoot has writes to undo.
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] { return exit_at; });
  obs::set_metrics_enabled(metrics_were_on);

  ASSERT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  EXPECT_GT(r.undone_writes, 0);
  EXPECT_EQ(static_cast<long>(cp.value() - cp0),
            static_cast<long>(r.checkpoint_ns));
  EXPECT_EQ(static_cast<long>(undo.value() - undo0),
            static_cast<long>(r.undo_ns));
}

// ---- lane groups: SpecArray<T, K> -----------------------------------------

using TwoLaneArray = SpecArray<double, 2>;

std::array<std::vector<double>, 2> two_lanes(long n, double a, double b) {
  const auto un = static_cast<std::size_t>(n);
  return {std::vector<double>(un, a), std::vector<double>(un, b)};
}

/// A get of either lane after the iteration's set is covered by the one
/// log entry the set appended: the round marks one entry per set and no
/// exposed read.
TEST(Speculative, TwoLaneGetAfterSetIsCovered) {
  ThreadPool pool(4);
  const long n = 1000;
  TwoLaneArray arr(two_lanes(n, 1.0, 2.0), pool.size(), true);
  SpecTarget* targets[] = {&arr};
  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        const auto idx = static_cast<std::size_t>((i * 7901) % n);
        arr.set(vpn, i, idx, static_cast<double>(i), static_cast<double>(-i));
        arr.set(vpn, i, idx, arr.get(vpn, idx, 0), arr.get(vpn, idx, 1) * 2.0);
        return IterAction::kContinue;
      },
      [&] {
        ADD_FAILURE() << "fell back";
        return n;
      });
  EXPECT_TRUE(r.pd_tested);
  EXPECT_TRUE(r.pd_passed);
  EXPECT_EQ(r.shadow_marks, 2 * n);  // two sets per iteration, no read
  for (long i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>((i * 7901) % n);
    EXPECT_EQ(arr.data(0)[idx], static_cast<double>(i)) << i;
    EXPECT_EQ(arr.data(1)[idx], static_cast<double>(-2 * i)) << i;
  }
}

/// A get of lane 1 before the set of an index ANOTHER iteration sets is an
/// exposed read the PD test must catch; the same get before the
/// iteration's own set (A[i] = f(A[i])) passes.  Marked from one thread,
/// as two workers would mark it, so no store races.
TEST(Speculative, TwoLaneGetBeforeAnotherIterationsSetFails) {
  ThreadPool pool(2);
  TwoLaneArray arr(two_lanes(8, 0.0, 0.0), pool.size(), true);
  arr.reset_marks();
  arr.begin_iteration(0, 0);
  arr.set(0, 0, 0, 1.0, arr.get(0, 0, 1) + 1.0);  // own index: covered later
  arr.begin_iteration(1, 1);
  (void)arr.get(1, 5, 1);  // exposed: iteration 3 sets index 5
  arr.set(1, 1, 1, 1.0, 1.0);
  arr.begin_iteration(1, 3);
  arr.set(1, 3, 5, 3.0, 3.0);
  const PDVerdict v = arr.analyze(pool, 4);
  EXPECT_EQ(v.written_elements, 3);
  EXPECT_EQ(v.exposed_read_elements, 2);
  EXPECT_EQ(v.conflicts, 1);  // index 5 only
  EXPECT_FALSE(v.fully_parallel());
  // Trip 3 drops the set: the read of index 5 alone conflicts with nothing.
  EXPECT_TRUE(arr.analyze(pool, 3).fully_parallel());
}

/// Generated bodies: every access a two-lane target sees also goes to two
/// single-lane targets (lane 0 to one, lane 1 to the other).  The group's
/// verdict must be the pair's: pass exactly when both pass, the written
/// elements each one's, and the exposed reads and conflicts their union.
TEST(Speculative, TwoLaneVerdictMatchesTwoSingleLaneTargets) {
  ThreadPool pool(4);
  int failing = 0, passing = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Xoshiro256 rng(seed);
    const unsigned workers = 1 + static_cast<unsigned>(rng.below(4));
    const long n = 1 + static_cast<long>(rng.below(48));
    TwoLaneArray group(two_lanes(n, 0.0, 0.0), workers, true);
    SpecArray<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        workers, true);
    SpecArray<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        workers, true);
    group.reset_marks();
    a.reset_marks();
    b.reset_marks();
    long sets = 0, top = 0;
    const double p_set = rng.uniform(0.2, 0.8);
    for (unsigned w = 0; w < workers; ++w) {
      // Worker w runs iterations w, w + workers, ... (a cyclic schedule).
      const long iters = 1 + static_cast<long>(rng.below(12));
      for (long k = 0; k < iters; ++k) {
        const long iter = k * workers + w;
        top = std::max(top, iter);
        group.begin_iteration(w, iter);
        a.begin_iteration(w, iter);
        b.begin_iteration(w, iter);
        const int accesses = 1 + static_cast<int>(rng.below(4));
        for (int q = 0; q < accesses; ++q) {
          const auto idx = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
          if (rng.uniform() < p_set) {
            const auto v = static_cast<double>(iter);
            group.set(w, iter, idx, v, -v);
            a.set(w, iter, idx, v);
            b.set(w, iter, idx, -v);
            ++sets;
          } else if (rng.below(2) == 0) {
            EXPECT_EQ(group.get(w, idx, 0), a.get(w, idx));
          } else {
            EXPECT_EQ(group.get(w, idx, 1), b.get(w, idx));
          }
        }
      }
    }
    // One entry per set serves both lanes; the exposed reads are shared.
    ASSERT_EQ(group.marks(), a.marks() + b.marks() - sets) << "seed " << seed;
    for (long trip : {0L, 1L, top / 2, top, top + 1}) {
      const PDVerdict g = group.analyze(pool, trip);
      const PDVerdict va = a.analyze(pool, trip);
      const PDVerdict vb = b.analyze(pool, trip);
      const std::string at = "seed " + std::to_string(seed) + " trip " + std::to_string(trip);
      ASSERT_EQ(g.fully_parallel(), va.fully_parallel() && vb.fully_parallel()) << at;
      ASSERT_EQ(g.parallel_with_privatization(),
                va.parallel_with_privatization() && vb.parallel_with_privatization())
          << at;
      ASSERT_EQ(g.written_elements, va.written_elements) << at;
      ASSERT_EQ(g.written_elements, vb.written_elements) << at;
      ASSERT_EQ(g.multi_written, va.multi_written) << at;
      ASSERT_GE(g.exposed_read_elements,
                std::max(va.exposed_read_elements, vb.exposed_read_elements)) << at;
      ASSERT_LE(g.exposed_read_elements,
                va.exposed_read_elements + vb.exposed_read_elements) << at;
      ASSERT_GE(g.conflicts, std::max(va.conflicts, vb.conflicts)) << at;
      ASSERT_LE(g.conflicts, va.conflicts + vb.conflicts) << at;
      (g.fully_parallel() ? passing : failing) += 1;
    }
  }
  // The generator reaches both verdicts.
  EXPECT_GT(passing, 0);
  EXPECT_GT(failing, 0);
}

/// A TRACK-shaped loop (both lanes stored through one permuted subscript,
/// RV exit) as one two-lane target, with the PD test on, under all three
/// speculative drivers: each leaves both lanes byte-identical to the
/// sequential loop.
TEST(Speculative, TwoLaneTargetMatchesSequentialUnderEveryDriver) {
  ThreadPool pool(4);
  const long n = 3000, exit_at = 2207;
  const auto slot = [&](long i) { return static_cast<std::size_t>((i * 1777) % n); };
  auto sequential = [&](std::vector<double>& p, std::vector<double>& v, long lo,
                        long hi) {
    for (long i = lo; i < hi; ++i) {
      if (i == exit_at) return i;
      p[slot(i)] = 0.5 * static_cast<double>(i);
      v[slot(i)] = p[slot(i)] - 1.0;
    }
    return hi;
  };
  std::array<std::vector<double>, 2> want = two_lanes(n, -1.0, -3.0);
  ASSERT_EQ(sequential(want[0], want[1], 0, n), exit_at);

  for (const std::string_view driver : {"speculative_while", "strips", "window"}) {
    TwoLaneArray arr(two_lanes(n, -1.0, -3.0), pool.size(), true);
    SpecTarget* targets[] = {&arr};
    const std::span<SpecTarget* const> ts(targets, 1);
    auto body = [&](long i, unsigned vpn) {
      arr.begin_iteration(vpn, i);
      if (i == exit_at) return IterAction::kExit;
      arr.set(vpn, i, slot(i), 0.5 * static_cast<double>(i), 0.0);
      arr.set(vpn, i, slot(i), arr.get(vpn, slot(i), 0),
              arr.get(vpn, slot(i), 0) - 1.0);
      return IterAction::kContinue;
    };
    auto whole = [&] { return sequential(arr.data(0), arr.data(1), 0, n); };
    ExecReport r;
    if (driver == "speculative_while") {
      r = speculative_while(pool, n, ts, body, whole);
    } else if (driver == "strips") {
      r = strip_speculative_while(pool, n, 500, ts, body,
                                  [&](long lo, long hi) {
                                    return sequential(arr.data(0), arr.data(1), lo, hi);
                                  })
              .exec;
    } else {
      r = sliding_window_speculative_while(pool, n, ts, body, whole).exec;
    }
    EXPECT_EQ(r.trip, exit_at) << driver;
    EXPECT_TRUE(r.pd_tested) << driver;
    EXPECT_TRUE(r.pd_passed) << driver;
    EXPECT_FALSE(r.reexecuted_sequentially) << driver;
    for (std::size_t lane = 0; lane < 2; ++lane) {
      ASSERT_EQ(arr.data(lane).size(), want[lane].size());
      EXPECT_EQ(std::memcmp(arr.data(lane).data(), want[lane].data(),
                            want[lane].size() * sizeof(double)),
                0)
          << driver << " lane " << lane;
    }
  }
}

}  // namespace
}  // namespace wlp
