#include <gtest/gtest.h>

#include <vector>

#include "wlp/core/speculative_privatized.hpp"

namespace wlp {
namespace {

/// Fig. 5(b)-shaped loop: a shared temporary written then read in every
/// iteration (output dependences only).  Strict DOALL speculation would
/// fail; privatization under test must succeed, with copy-out delivering
/// the last valid iteration's value.
TEST(SpeculativePrivatized, OutputDepsPassUnderPrivatization) {
  ThreadPool pool(4);
  const long n = 2000, exit_at = 1500;
  std::vector<double> tmp{0.0};       // the shared temporary (slot 0)
  std::vector<double> out(static_cast<std::size_t>(n), -1.0);

  PrivatizedSpecArray<double> ptmp(tmp, pool.size());
  PrivatizedSpecArray<double> pout(out, pool.size());
  PrivTarget* targets[] = {&ptmp, &pout};

  const ExecReport r = speculative_privatized_while(
      pool, n, std::span<PrivTarget* const>(targets, 2),
      [&](long i, unsigned vpn) {
        ptmp.begin_iteration(vpn, i);
        pout.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        ptmp.set(vpn, i, 0, static_cast<double>(i) * 2);  // tmp = 2i
        pout.set(vpn, i, static_cast<std::size_t>(i), ptmp.get(vpn, 0) + 1);
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  EXPECT_TRUE(r.pd_passed);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_FALSE(r.used_checkpoint);  // the original data is the backup
  EXPECT_EQ(r.trip, exit_at);
  // Copy-out: tmp holds the LAST VALID iteration's value.
  EXPECT_EQ(tmp[0], static_cast<double>(exit_at - 1) * 2);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              i < exit_at ? static_cast<double>(i) * 2 + 1 : -1.0)
        << i;
}

/// A genuine cross-iteration flow dependence (exposed read of another
/// iteration's write) must fail the verdict; the shared data must be
/// untouched and the sequential fallback must run against it.
TEST(SpeculativePrivatized, CrossIterationFlowFailsCleanly) {
  ThreadPool pool(4);
  const long n = 400;
  std::vector<double> acc{1.0};  // running accumulator: a true recurrence

  PrivatizedSpecArray<double> pacc(acc, pool.size());
  PrivTarget* targets[] = {&pacc};

  const ExecReport r = speculative_privatized_while(
      pool, n, std::span<PrivTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        pacc.begin_iteration(vpn, i);
        // acc = acc + 1: exposed read (no same-iteration write precedes it).
        pacc.set(vpn, i, 0, pacc.get(vpn, 0) + 1.0);
        return IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < n; ++i) acc[0] += 1.0;
        return n;
      });

  EXPECT_FALSE(r.pd_passed);
  EXPECT_TRUE(r.reexecuted_sequentially);
  EXPECT_EQ(acc[0], 1.0 + static_cast<double>(n));  // exact sequential result
}

/// Exceptions abort the speculation; since the shared data was never
/// touched, no restore is needed before the sequential run.
TEST(SpeculativePrivatized, ExceptionFallsBackWithoutRestore) {
  ThreadPool pool(4);
  std::vector<double> data(100, 5.0);
  PrivatizedSpecArray<double> pd(data, pool.size());
  PrivTarget* targets[] = {&pd};

  const ExecReport r = speculative_privatized_while(
      pool, 100, std::span<PrivTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        pd.begin_iteration(vpn, i);
        pd.set(vpn, i, static_cast<std::size_t>(i), 9.0);
        if (i == 50) throw std::runtime_error("fault");
        return IterAction::kContinue;
      },
      [&] {
        for (auto& v : data) v = 7.0;
        return 100L;
      });

  EXPECT_TRUE(r.reexecuted_sequentially);
  for (double v : data) EXPECT_EQ(v, 7.0);
}

/// Same location written by several iterations, a different location read:
/// pure output dependences over the whole run, validated with privatization
/// even when overshoot writes land beyond the trip.
TEST(SpeculativePrivatized, OvershootWritesFilteredByCopyOut) {
  ThreadPool pool(4);
  const long n = 3000, exit_at = 2000;
  std::vector<double> cell{0.0};
  PrivatizedSpecArray<double> pc(cell, pool.size());
  PrivTarget* targets[] = {&pc};

  const ExecReport r = speculative_privatized_while(
      pool, n, std::span<PrivTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        pc.begin_iteration(vpn, i);
        pc.set(vpn, i, 0, static_cast<double>(i));  // every iteration writes
        return i == exit_at - 1 ? IterAction::kExitAfter : IterAction::kContinue;
      },
      [&] { return exit_at; });

  EXPECT_EQ(r.method, Method::kInduction2);
  EXPECT_TRUE(r.pd_passed);
  EXPECT_EQ(r.trip, exit_at);
  // Overshot iterations wrote privately too; copy-out must pick the
  // largest stamp BELOW the trip.
  EXPECT_EQ(cell[0], static_cast<double>(exit_at - 1));
}

/// Each iteration writes its cell twice; copy-out must keep the SECOND
/// write of the cell's last valid iteration.  The trail keeps no sequence
/// number: an iteration runs on one worker, whose trail holds its writes in
/// program order, and copy-out's sort by (index, iteration) is stable.
TEST(SpeculativePrivatized, SameIterationWritesCopyOutInProgramOrder) {
  ThreadPool pool(4);
  const long n = 20000, exit_at = 15000;
  constexpr long kCells = 8;
  std::vector<double> cells(kCells, -1.0);
  PrivatizedSpecArray<double> pc(cells, pool.size());
  PrivTarget* targets[] = {&pc};

  const ExecReport r = speculative_privatized_while(
      pool, n, std::span<PrivTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        pc.begin_iteration(vpn, i);
        if (i >= exit_at) return IterAction::kExit;
        const auto cell = static_cast<std::size_t>(i % kCells);
        pc.set(vpn, i, cell, static_cast<double>(i));        // first
        pc.set(vpn, i, cell, static_cast<double>(i) + 0.5);  // second
        return IterAction::kContinue;
      },
      [&] { return exit_at; });

  EXPECT_TRUE(r.pd_passed);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_EQ(r.trip, exit_at);
  // exit_at is a multiple of kCells: cell c's last valid iteration is
  // exit_at - kCells + c.
  for (long c = 0; c < kCells; ++c)
    EXPECT_EQ(cells[static_cast<std::size_t>(c)],
              static_cast<double>(exit_at - kCells + c) + 0.5)
        << c;
}

}  // namespace
}  // namespace wlp
