// End-to-end tests: the real workloads driven through the runtime methods
// must reproduce their sequential results exactly — Table 2's loops as
// executable checks.
#include <gtest/gtest.h>

#include "wlp/workloads/spice.hpp"
#include "wlp/workloads/track.hpp"
#include "wlp/workloads/hb_generator.hpp"
#include "wlp/workloads/sparse_lu.hpp"
#include "wlp/workloads/ma28_pivot.hpp"
#include "wlp/workloads/mcsparse_pivot.hpp"

namespace wlp::workloads {
namespace {

// --- SPICE LOAD loop 40 -------------------------------------------------------

class SpiceMethods : public ::testing::TestWithParam<int> {};

TEST_P(SpiceMethods, MatrixIdenticalToSequential) {
  ThreadPool pool(4);
  SpiceConfig cfg;
  cfg.devices = 1500;
  const SpiceLoad load(cfg);

  std::vector<double> ref = load.fresh_matrix();
  load.run_sequential(ref);

  std::vector<double> out = load.fresh_matrix();
  ExecReport r;
  switch (GetParam()) {
    case 0: r = load.run_general1(pool, out); break;
    case 1: r = load.run_general2(pool, out); break;
    case 2: r = load.run_general3(pool, out); break;
    case 3: r = load.run_wu_lewis_distribute(pool, out); break;
    default: r = load.run_wu_lewis_doacross(pool, out); break;
  }
  EXPECT_EQ(r.trip, cfg.devices);
  EXPECT_EQ(r.overshot, 0);  // RI terminator: Table 2 says no undo needed
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(out[i], ref[i]) << "matrix slot " << i;
}

std::string spice_method_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"General1", "General2", "General3",
                                      "WuLewisDistribute", "WuLewisDoacross"};
  return names[info.param];
}
INSTANTIATE_TEST_SUITE_P(Methods, SpiceMethods, ::testing::Values(0, 1, 2, 3, 4),
                         spice_method_name);

TEST(Spice, ProfileShapesMatchConfig) {
  const SpiceLoad load(
      {.devices = 2000, .min_terms = 4, .max_terms = 24, .seed = 7});
  const auto lp = load.profile();
  EXPECT_EQ(lp.u, 2000);
  EXPECT_EQ(lp.trip, 2000);
  EXPECT_FALSE(lp.overshoot_does_work);
  EXPECT_EQ(lp.writes_per_iter, 4);
  // Work variance exists (the grain is variable).
  const auto [mn, mx] = std::minmax_element(lp.work.begin(), lp.work.end());
  EXPECT_LT(*mn, *mx);
}

// --- TRACK FPTRAK loop 300 ---------------------------------------------------

class TrackMethods : public ::testing::TestWithParam<int> {};

TEST_P(TrackMethods, StateIdenticalToSequentialAfterUndo) {
  ThreadPool pool(4);
  TrackConfig cfg;
  cfg.candidates = 3000;
  const TrackLoop loop(cfg);

  std::vector<double> pos_ref = loop.fresh_positions();
  std::vector<double> vel_ref = loop.fresh_velocities();
  const long seq_trip = loop.run_sequential(pos_ref, vel_ref);
  EXPECT_EQ(seq_trip, loop.expected_trip());

  std::vector<double> pos = loop.fresh_positions();
  std::vector<double> vel = loop.fresh_velocities();
  ExecReport r;
  switch (GetParam()) {
    case 0: r = loop.run_induction1(pool, pos, vel); break;
    case 1: r = loop.run_induction2(pool, pos, vel); break;
    default: r = loop.run_speculative(pool, pos, vel); break;
  }
  EXPECT_EQ(r.trip, seq_trip);
  EXPECT_EQ(pos, pos_ref);
  EXPECT_EQ(vel, vel_ref);
  if (GetParam() == 2) {
    EXPECT_TRUE(r.pd_tested);
    EXPECT_TRUE(r.pd_passed);  // the subscripts are a permutation
    EXPECT_FALSE(r.reexecuted_sequentially);
  }
}

std::string track_method_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"Induction1", "Induction2", "Speculative"};
  return names[info.param];
}
INSTANTIATE_TEST_SUITE_P(Methods, TrackMethods, ::testing::Values(0, 1, 2),
                         track_method_name);

// Induction-1/2 run as one SpecRound with the PD test off: one fused
// checkpoint and one fused undo, both timed into the report.
void expect_track_round(const ExecReport& r, const TrackLoop& loop, Method m) {
  EXPECT_EQ(r.method, m);
  EXPECT_EQ(r.trip, loop.expected_trip());
  EXPECT_TRUE(r.used_checkpoint);
  EXPECT_TRUE(r.used_stamps);
  EXPECT_FALSE(r.pd_tested);
  EXPECT_FALSE(r.reexecuted_sequentially);
  EXPECT_GT(r.checkpoint_ns, 0);
  EXPECT_GT(r.undo_ns, 0);
}

TEST(Track, Induction1UndoesOvershootWrites) {
  ThreadPool pool(4);
  TrackConfig cfg;
  cfg.candidates = 2000;
  const TrackLoop loop(cfg);
  std::vector<double> pos = loop.fresh_positions();
  std::vector<double> vel = loop.fresh_velocities();
  const ExecReport r = loop.run_induction1(pool, pos, vel);
  // Induction-1 runs the whole range: overshoot is everything past the trip.
  EXPECT_EQ(r.started, cfg.candidates);
  EXPECT_EQ(r.overshot, cfg.candidates - r.trip);
  // The exiting iteration stores nothing; every later one stored pos and vel.
  EXPECT_EQ(r.undone_writes, 2 * (cfg.candidates - r.trip - 1));
  expect_track_round(r, loop, Method::kInduction1);
}

TEST(Track, Induction2UndoesOvershootWrites) {
  ThreadPool pool(4);
  TrackConfig cfg;
  cfg.candidates = 2000;
  const TrackLoop loop(cfg);
  std::vector<double> pos = loop.fresh_positions();
  std::vector<double> vel = loop.fresh_velocities();
  const ExecReport r = loop.run_induction2(pool, pos, vel);
  // The QUIT may stop the issue anywhere past the exiting iteration, which
  // itself ran; each iteration begun past it stored pos and vel.
  EXPECT_GT(r.started, r.trip);
  EXPECT_LE(r.started, cfg.candidates);
  EXPECT_EQ(r.overshot, r.started - r.trip);
  EXPECT_EQ(r.undone_writes, 2 * (r.started - r.trip - 1));
  expect_track_round(r, loop, Method::kInduction2);
}

TEST(Track, IdealOracleMatchesSequentialPrefix) {
  ThreadPool pool(4);
  const TrackLoop loop(
      {.candidates = 2500, .error_position = 0.93, .seed = 11});
  std::vector<double> pos_ref = loop.fresh_positions();
  std::vector<double> vel_ref = loop.fresh_velocities();
  loop.run_sequential(pos_ref, vel_ref);
  std::vector<double> pos = loop.fresh_positions();
  std::vector<double> vel = loop.fresh_velocities();
  loop.run_ideal(pool, pos, vel);
  EXPECT_EQ(pos, pos_ref);
  EXPECT_EQ(vel, vel_ref);
}

// --- MA28: pivot search embedded in a real factorization ----------------------

TEST(Ma28EndToEnd, LUWithParallelPivotSearchStructure) {
  // The search problem derives from the same matrices the LU factors; this
  // ties the pivot-search workload to a real solve.
  ThreadPool pool(4);
  const SparseMatrix a = gen_power_flow(220, 1400, 0.03, 19);

  Ma28PivotSearch search(a, {});
  ExecReport r;
  const PivotCandidate par = search.search_induction1(pool, r);
  const PivotCandidate seq = search.search_sequential();
  ASSERT_TRUE(par.valid());
  EXPECT_EQ(par.row, seq.row);
  EXPECT_EQ(par.col, seq.col);

  MarkowitzLU lu(a);
  ASSERT_TRUE(lu.factor());
  // The first pivot MA28-style factorization chooses equals the standalone
  // search's choice (same search rule on the same structure).
  EXPECT_EQ(lu.perm_row()[0], seq.row);
  EXPECT_EQ(lu.perm_col()[0], seq.col);

  std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
  const std::vector<double> x = lu.solve(b);
  EXPECT_LT(residual_inf_norm(a, x, b), 1e-8);
}

// --- MCSPARSE: WHILE-DOANY over the real inputs -------------------------------

TEST(McsparseEndToEnd, DoanyPivotOnAllFourInputs) {
  ThreadPool pool(4);
  for (const auto& [matrix, name] :
       {std::pair{gen_gematt11(), "gematt11"}, std::pair{gen_gematt12(), "gematt12"},
        std::pair{gen_orsreg1(), "orsreg1"}, std::pair{gen_saylr4(), "saylr4"}}) {
    McsparsePivotSearch search(matrix, {});
    ExecReport r;
    const PivotCandidate p = search.search_doany(pool, r);
    ASSERT_TRUE(p.valid()) << name;
    EXPECT_TRUE(search.acceptable(p)) << name;
    EXPECT_NE(matrix.at(p.row, p.col), 0.0) << name;
  }
}

}  // namespace
}  // namespace wlp::workloads
