// Overhead-management strategies — Sections 4, 8.1 and 8.3.
//
//   * strip_mined_while: execute the loop strip by strip; time-stamp memory
//     is bounded by (strip size x writes per iteration) and overshoot by the
//     strip size, at the price of a global synchronization per strip.
//   * stats_enhanced_while: given a compiler/profile estimate n_i of the trip
//     count, only time-stamp writes of iterations >= n'_i (= confidence x
//     n_i).  If the loop in fact exits before n'_i, unstamped overshot writes
//     cannot be undone selectively, so the full checkpoint is restored and
//     the loop re-executes sequentially — the gamble Section 8.1 describes.
//     The speculation itself is one SpecRound (spec_round.hpp).
//   * one_processor_hedge: run the loop sequentially and in parallel on
//     disjoint copies at once; whichever finishes the race defines the
//     result (Section 8.3's 1/(p-1) solution).  Modeled here as a sequential
//     race driver that reports which side won.
#pragma once

#include <algorithm>
#include <span>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {

/// Strip-mined speculative WHILE loop over [0, u): every strip is one
/// QUIT-aware DOALL under `opts`.  `body(i, vpn) -> IterAction`.  Overshoot
/// never exceeds one strip.
template <class Body>
ExecReport strip_mined_while(ThreadPool& pool, long u, long strip, Body&& body,
                             DoallOptions opts = {}) {
  ExecReport r;
  r.method = Method::kStripMined;
  if (strip <= 0) strip = u;
  for (long base = 0; base < u; base += strip) {
    const long end = std::min(base + strip, u);
    WLP_TRACE_SCOPE("strip", base, end - base);
    WLP_OBS_COUNT("wlp.strip.runs", 1);
    const QuitResult qr = doall_quit(pool, base, end, body, opts);
    r.started += qr.started;
    if (qr.trip < end) {
      r.trip = qr.trip;
      r.overshot = std::max(0L, qr.started - (qr.trip - base));
      return r;
    }
  }
  r.trip = u;
  return r;
}

/// Statistics-enhanced stamping threshold (Section 8.1): n'_i as a fraction
/// of the estimated trip count, scaled by the confidence placed in it.
struct StampThreshold {
  long value = 0;

  bool should_stamp(long iter) const noexcept { return iter >= value; }

  /// "if the confidence in n_i is about x%, then n'_i is selected to be
  /// about x% of n_i."
  static StampThreshold from_estimate(long estimated_trip, double confidence) {
    StampThreshold t;
    t.value = static_cast<long>(static_cast<double>(estimated_trip) * confidence);
    return t;
  }
};

/// Speculative run in which the body stamps writes only for iterations >=
/// threshold: one SpecRound over the whole loop.  `body(i, vpn, stamped) ->
/// IterAction` where `stamped` tells the body whether its writes this
/// iteration must go through the stamped path.  A trip below the threshold
/// leaves unstamped overshot writes, which no selective undo can find, so
/// the speculation is abandoned like a failed one: full restore +
/// sequential re-execution via `run_sequential() -> trip`.
template <class Body, class SeqRun>
ExecReport stats_enhanced_while(ThreadPool& pool, long u, StampThreshold threshold,
                                std::span<SpecTarget* const> targets, Body&& body,
                                SeqRun&& run_sequential, SpecOptions opts = {}) {
  ExecReport r;
  r.method = opts.doall.use_quit ? Method::kInduction2 : Method::kInduction1;
  SpecRound round(pool, targets, r);
  round.begin();
  QuitResult qr{};
  round.run([&] {
    qr = doall_quit(
        pool, 0, u,
        [&](long i, unsigned vpn) {
          return body(i, vpn, threshold.should_stamp(i));
        },
        opts.doall);
  });
  r.trip = qr.trip;
  r.started = qr.started;
  r.overshot = std::max(0L, qr.started - qr.trip);
  if (round.validate(qr.trip) && qr.trip >= threshold.value)
    round.commit(qr.trip);
  else
    r.trip = round.rollback(run_sequential);
  return r;
}

/// Section 8.3 — the one-processor/(p-1)-processor hedge.  Both executions
/// run against disjoint copies of the output data; the caller provides both
/// runners and this driver reports the parallel result when speculation
/// succeeded and the sequential result otherwise.  (On a real machine the
/// two would race; here the semantics — never slower than max(seq, par),
/// never wrong — are what matters and what the tests check.)
struct HedgeOutcome {
  ExecReport parallel;
  long sequential_trip = 0;
  bool parallel_won = false;
};

template <class ParRun, class SeqRun>
HedgeOutcome one_processor_hedge(ParRun&& run_parallel, SeqRun&& run_sequential) {
  HedgeOutcome h;
  WLP_TRACE_SCOPE_NAMED(hedge_scope, "hedge", 0, 0);
  h.parallel = run_parallel();
  h.sequential_trip = run_sequential();
  h.parallel_won = !h.parallel.reexecuted_sequentially;
  WLP_OBS_COUNT("wlp.hedge.runs", 1);
  WLP_OBS_COUNT(h.parallel_won ? "wlp.hedge.parallel_won" : "wlp.hedge.sequential_won", 1);
  hedge_scope.args(static_cast<std::uint64_t>(h.sequential_trip),
                   static_cast<std::uint64_t>(h.parallel_won));
  return h;
}

}  // namespace wlp
