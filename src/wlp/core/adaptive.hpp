// Run-time adaptation — the paper's closing direction (Sections 7 and 11):
// "it would be useful to estimate the number of iterations in the loop
// using information such as branch statistics", and "our methods should
// make use of run-time collected information about the parallel/not
// parallel nature of the loop".
//
// LoopStatistics accumulates, across invocations of one loop site:
//   * observed trip counts              -> the n_i estimate and the
//                                          statistics-enhanced stamping
//                                          threshold of Section 8.1,
//   * speculation outcomes (pass/fail)  -> the empirical probability the
//                                          loop is parallel, feeding the
//                                          Section 7 go/no-go decision.
#pragma once

#include <algorithm>

#include "wlp/obs/obs.hpp"
#include "wlp/core/cost_model.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/strategies.hpp"

namespace wlp {

class LoopStatistics {
 public:
  /// Record one completed execution of the loop site.
  void record(const ExecReport& r) {
    ++invocations_;
    trip_sum_ += r.trip;
    trip_max_ = std::max(trip_max_, r.trip);
    if (r.pd_tested) {
      ++speculations_;
      if (!r.pd_passed) ++failures_;
    }
    if (r.pd_tested) {
      // Measured instrumentation volume: feeds observed_profile()'s `a`.
      marks_sum_ += r.shadow_marks;
      marked_iters_ += std::max(r.started, r.trip);
    }
    if (r.used_checkpoint) {
      // Measured Tb/Ta of the batched backup layer: feeds the cost model's
      // measured_tb/measured_ta overrides instead of the O(a/p) worst case.
      ++undo_samples_;
      checkpoint_ns_sum_ += r.checkpoint_ns;
      undo_ns_sum_ += r.undo_ns;
    }
    // Verdict-cache activity: feeds the PD post-analysis discount in
    // observed_profile() (0 probes = no cache = no discount).
    verdict_probes_ += r.verdict_probes;
    verdict_hits_ += r.verdict_hits;
    WLP_OBS_HIST("wlp.adaptive.trip", r.trip);
  }

  /// Also usable with plain trip observations (profiling runs).
  void record_trip(long trip) {
    ++invocations_;
    trip_sum_ += trip;
    trip_max_ = std::max(trip_max_, trip);
  }

  long invocations() const noexcept { return invocations_; }

  /// The n_i estimate of Section 8.1.
  long estimated_trip() const noexcept {
    return invocations_ > 0 ? trip_sum_ / invocations_ : 0;
  }

  /// Confidence in the estimate: how tight past trips were around the mean
  /// (1 = always identical; decreases as the max diverges from the mean).
  double confidence() const noexcept {
    if (invocations_ == 0 || trip_max_ == 0) return 0.0;
    return static_cast<double>(estimated_trip()) /
           static_cast<double>(trip_max_);
  }

  /// The statistics-enhanced stamping threshold: n'_i = confidence * n_i.
  StampThreshold stamp_threshold() const {
    return StampThreshold::from_estimate(estimated_trip(), confidence());
  }

  /// Shadow marks per executed iteration, measured across PD-tested runs
  /// (ExecReport::shadow_marks).  This is the paper's `a` expressed per
  /// iteration — but *observed*, so the accessor's last-writer filtering and
  /// the loop's real access pattern are already folded in.
  double marks_per_iteration() const noexcept {
    if (marked_iters_ <= 0) return 0.0;
    return static_cast<double>(marks_sum_) /
           static_cast<double>(marked_iters_);
  }

  /// Mean measured checkpoint (Tb) and undo/restore (Ta) wall time per
  /// checkpointed run, in seconds.  Negative when nothing was measured yet.
  double mean_checkpoint_seconds() const noexcept {
    return undo_samples_ > 0
               ? checkpoint_ns_sum_ / static_cast<double>(undo_samples_) * 1e-9
               : -1.0;
  }
  double mean_undo_seconds() const noexcept {
    return undo_samples_ > 0
               ? undo_ns_sum_ / static_cast<double>(undo_samples_) * 1e-9
               : -1.0;
  }

  /// Section 7 OverheadProfile built from what this site actually did:
  /// measured marks/iteration scaled by the trip estimate, plus — once a
  /// checkpointed run has been recorded — the MEASURED Tb/Ta, converted into
  /// the LoopTiming's units via `seconds_per_unit` (the wall time one
  /// LoopTiming unit represents; 0 keeps the a/p model terms).
  OverheadProfile observed_profile(bool pd_test = true, bool needs_undo = true,
                                   double access_cost = 1.0,
                                   double seconds_per_unit = 0.0) const {
    OverheadProfile o = observed_overheads(
        marks_per_iteration(), static_cast<double>(estimated_trip()), pd_test,
        needs_undo, access_cost, -1.0, -1.0, verdict_hit_rate());
    if (seconds_per_unit > 0 && undo_samples_ > 0) {
      o.measured_tb = mean_checkpoint_seconds() / seconds_per_unit;
      o.measured_ta = mean_undo_seconds() / seconds_per_unit;
    }
    return o;
  }

  /// Fraction of PD analyses the verdict cache served for this site, in
  /// [0, 1].  0 until a cache-attached run is recorded.
  double verdict_hit_rate() const noexcept {
    if (verdict_probes_ <= 0) return 0.0;
    return static_cast<double>(verdict_hits_) /
           static_cast<double>(verdict_probes_);
  }

  /// Empirical probability a speculation on this loop succeeds.
  double parallel_probability() const noexcept {
    if (speculations_ == 0) return 1.0;  // optimistic until contradicted
    return 1.0 - static_cast<double>(failures_) /
                     static_cast<double>(speculations_);
  }

  /// The go/no-go decision of Section 7, weighted by the failure history:
  /// expected speedup = P(parallel) * Spat + (1-P) * 1/(1 + slowdown).
  bool should_speculate(const Prediction& pred) const noexcept {
    return expected_speculative_speedup(pred, parallel_probability()) > 1.05;
  }

  /// Fully history-driven go/no-go: the prediction itself is built from the
  /// site's measured marks/iteration (observed_profile) rather than a
  /// compiler estimate of the access count, then weighted by the observed
  /// pass/fail record as above.
  bool should_speculate(const LoopTiming& t, unsigned p,
                        DispatcherParallelism dp) const {
    const Prediction pred = predict(t, observed_profile(), p, dp);
    return expected_speculative_speedup(pred, parallel_probability()) > 1.05;
  }

 private:
  long invocations_ = 0;
  long trip_sum_ = 0;
  long trip_max_ = 0;
  long speculations_ = 0;
  long failures_ = 0;
  long marks_sum_ = 0;
  long marked_iters_ = 0;
  long undo_samples_ = 0;
  double checkpoint_ns_sum_ = 0;
  double undo_ns_sum_ = 0;
  long verdict_probes_ = 0;
  long verdict_hits_ = 0;
};

}  // namespace wlp
