// The cost/performance analysis of Section 7.
//
// Given the sequential split of a WHILE loop into Trec (time to evaluate the
// dispatching recurrence) and Trem (time in the remainder), the model
// predicts the ideal speedup Spid, the attainable speedup Spat after the
// overheads Tb (before: checkpointing), Td (during: time-stamping and shadow
// accesses) and Ta (after: undo + PD post-analysis), the worst-case fraction
// Spat/Spid (1/4 without the PD test, 1/5 with it), the slowdown of a failed
// speculation (~Tseq/p extra), and — via branch statistics — the expected
// trip count used to decide whether parallelization is worthwhile at all.
#pragma once

#include "wlp/core/taxonomy.hpp"

namespace wlp {

/// Sequential timing split of the loop (arbitrary but consistent units).
struct LoopTiming {
  double t_rem = 0;  ///< total remainder time
  double t_rec = 0;  ///< total dispatcher (recurrence) time

  double t_seq() const noexcept { return t_rem + t_rec; }
};

/// What the run-time techniques add.
struct OverheadProfile {
  long accesses = 0;        ///< a: accesses made during the loop (paper's `a`)
  double access_cost = 1.0; ///< cost of one bookkeeping operation
  bool pd_test = false;     ///< shadow marking + post-analysis applied
  bool needs_undo = false;  ///< checkpoint before + undo after
  /// MEASURED before/after terms (same units as the LoopTiming the profile
  /// is predicted against; negative = not measured, fall back to the a/p
  /// model).  The runtime reports these per run (ExecReport::checkpoint_ns /
  /// undo_ns); LoopStatistics averages them so predictions use the batched
  /// implementation's real Tb/Ta instead of the paper's worst-case O(a/p).
  double measured_tb = -1.0;
  double measured_ta = -1.0;
};

struct Prediction {
  double spid = 1.0;           ///< ideal speedup
  double spat = 1.0;           ///< attainable speedup under the overheads
  double efficiency = 1.0;     ///< spat / spid
  double failed_slowdown = 0;  ///< extra time (fraction of Tseq) if the PD
                               ///< test fails and the loop re-runs serially
  bool recommend = false;      ///< parallelize?
};

/// Ideal parallel time Tipar for the loop on p processors given how
/// parallelizable the dispatcher is (Section 7's three cases).  `log_p_cost`
/// scales the additive log(p) term of the prefix evaluation.
double ideal_parallel_time(const LoopTiming& t, unsigned p,
                           DispatcherParallelism dp, double log_p_cost = 1.0);

/// Spid = Tseq / Tipar.
double ideal_speedup(const LoopTiming& t, unsigned p, DispatcherParallelism dp,
                     double log_p_cost = 1.0);

/// The before/during/after overhead terms of Section 7.
struct OverheadTerms {
  double t_b = 0;
  double t_d = 0;
  double t_a = 0;
  double total() const noexcept { return t_b + t_d + t_a; }
};
OverheadTerms overhead_terms(const OverheadProfile& o, unsigned p, double spid);

/// Spat = Tseq / (Tipar + Tb + Td + Ta).
double attainable_speedup(const LoopTiming& t, const OverheadProfile& o,
                          unsigned p, DispatcherParallelism dp,
                          double log_p_cost = 1.0);

/// Section 7's floor on Spat/Spid in the worst case (Spid ~ p).
constexpr double worst_case_fraction(bool pd_test) noexcept {
  return pd_test ? 0.2 : 0.25;
}

/// Full prediction + the go/no-go decision.  `min_speedup` is the smallest
/// attainable speedup for which parallelization is recommended.
Prediction predict(const LoopTiming& t, const OverheadProfile& o, unsigned p,
                   DispatcherParallelism dp, double min_speedup = 1.05,
                   double log_p_cost = 1.0);

/// Build an OverheadProfile from MEASURED instrumentation volume instead of
/// a compiler estimate of `a`: `marks_per_iteration` is the shadow marks the
/// runtime actually recorded per executed iteration (ExecReport::shadow_marks
/// over started iterations — reads covered by a same-iteration write are
/// not marked, so this is usually below the static access count), and
/// `expected_trip` the trip estimate the prediction is being made for.
/// `measured_tb` / `measured_ta` (optional, negative = unmeasured) carry the
/// runtime's observed checkpoint/undo cost straight into the profile.
OverheadProfile observed_overheads(double marks_per_iteration,
                                   double expected_trip, bool pd_test,
                                   bool needs_undo, double access_cost = 1.0,
                                   double measured_tb = -1.0,
                                   double measured_ta = -1.0);

/// Branch statistics for the termination condition (Section 7: "the
/// compiler could predict the number of iterations using branch statistics").
struct BranchStats {
  long exit_taken = 0;      ///< times the exit branch was taken
  long exit_not_taken = 0;  ///< times it fell through

  /// Per-evaluation exit probability.
  double exit_probability() const noexcept;
};

/// Expected trip count under a geometric model: E[trip] = 1/q where q is
/// the per-iteration exit probability.
double estimate_trip(const BranchStats& b);

/// Expected end-to-end speedup of attempting the speculation when the loop
/// turns out parallel with probability `p_parallel` (Section 7 weighted by
/// the Section 11 run-time history): successes deliver Spat, failures cost
/// the sequential re-execution plus the wasted attempt.
double expected_speculative_speedup(const Prediction& pred, double p_parallel);

}  // namespace wlp
