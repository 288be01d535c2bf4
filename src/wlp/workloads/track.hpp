// TRACK FPTRAK loop 300 analog — Section 9, Table 2 row 2, Figure 7.
//
// The original is a DO loop with a conditional exit taken when an error
// condition is detected, whose body writes an array through a run-time
// computed subscript array:
//
//     do i = 1, n
//         if (error_in_track(i)) exit        ; RV terminator
//         pos = sub[i]                        ; run-time subscript
//         P[pos] = extrapolate(i); V[pos] = ...
//     enddo
//
// Taxonomy cell: induction dispatcher x RV terminator -> the parallel
// execution overshoots, so backups (checkpoint) and time-stamps are needed,
// exactly as Table 2 records for this loop.  The subscript array is a
// permutation, so the iterations are in fact independent — but only the PD
// test can establish that at run time, which run_speculative() exercises.
//
// P and V are written through the same subscript in the same iteration, so
// every method speculates them as ONE two-lane SpecArray: one write log
// entry per iteration serves both arrays' undo and the PD test's write
// marks, and the PD test analyzes that log once.
#pragma once

#include <cstdint>
#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/sim/machine.hpp"

namespace wlp::workloads {

struct TrackConfig {
  long candidates = 5000;       ///< loop bound n (track extrapolation points)
  double error_position = 0.93; ///< the bad track sits at ~93% of the range
  std::uint64_t seed = 7;
};

class TrackLoop {
 public:
  explicit TrackLoop(TrackConfig cfg = {});

  long candidates() const noexcept { return cfg_.candidates; }
  /// The iteration at which the sequential loop exits.
  long expected_trip() const noexcept { return exit_at_; }

  /// Fresh position/velocity state arrays (one slot per candidate).
  std::vector<double> fresh_positions() const;
  std::vector<double> fresh_velocities() const;

  /// Sequential reference; returns the trip count.
  long run_sequential(std::vector<double>& pos, std::vector<double>& vel) const;

  /// Induction-1 / Induction-2 with checkpoint + per-worker write logs (the
  /// paper's Table 2 configuration for this loop: backups and time-stamps),
  /// run as one SpecRound with the PD test off.  A body that throws is a
  /// failed speculation: the state is restored and the loop re-executes
  /// sequentially.
  ExecReport run_induction1(ThreadPool& pool, std::vector<double>& pos,
                            std::vector<double>& vel) const;
  ExecReport run_induction2(ThreadPool& pool, std::vector<double>& pos,
                            std::vector<double>& vel) const;

  /// Fully speculative variant: the subscript array is treated as unknown
  /// and the PD test validates the run (Section 5 end to end).
  ExecReport run_speculative(ThreadPool& pool, std::vector<double>& pos,
                             std::vector<double>& vel) const;

  /// Hand-parallelized ideal (oracle trip count known up front, no undo
  /// machinery) — the "ideal speedup" series of Figure 7.
  ExecReport run_ideal(ThreadPool& pool, std::vector<double>& pos,
                       std::vector<double>& vel) const;

  sim::LoopProfile profile() const;

 private:
  /// One track extrapolation step; also reports whether this candidate
  /// triggers the error exit.
  bool extrapolate(long i, double& p_out, double& v_out) const;
  /// One SpecRound over the loop, shared by all three speculative methods,
  /// with pos and vel as the two lanes of one target: `run_pd_test` shadows
  /// the subscripted writes for the PD test, and `use_quit` picks
  /// Induction-2's QUIT over Induction-1's full range.
  ExecReport run_round(ThreadPool& pool, std::vector<double>& pos,
                       std::vector<double>& vel, bool run_pd_test,
                       bool use_quit) const;

  TrackConfig cfg_;
  std::vector<std::int32_t> sub_;  ///< run-time subscript array (permutation)
  std::vector<double> obs_;        ///< per-candidate observation (work input)
  std::vector<std::int16_t> steps_;  ///< per-candidate smoothing steps (grain)
  long exit_at_ = 0;
};

}  // namespace wlp::workloads
