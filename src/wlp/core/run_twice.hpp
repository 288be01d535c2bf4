// The run-twice strategy — Sections 4 and 5.
//
// "Time-stamping can be avoided completely if one is willing to execute the
// parallel version of the WHILE loop twice.  First, the loop is run in
// parallel to determine the number of iterations ...  Then, since the
// number of iterations is known, the second time the loop can simply be run
// as a DOALL."  Section 5 adds the speculative flavor: once the trip count
// is known, the resulting DO loop can be speculatively parallelized with
// the PD test as usual.
//
// The contract that makes pass 1 cheap is that the PROBE body evaluates
// only the termination logic (no shared writes): it needs no checkpoint, no
// stamps, no undo.  Pass 2 then executes exactly [0, trip) — no overshoot
// by construction.
//
// Repeated invocations against the same targets are cheap: reset_marks()
// rewinds the per-worker PD and write logs in O(workers), so the per-call
// setup does not scale with the array size.
#pragma once

#include <span>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/speculative.hpp"

namespace wlp {

struct RunTwiceReport {
  ExecReport exec;        ///< the pass-2 execution (authoritative state)
  long probe_started = 0; ///< iterations evaluated by the trip-finding pass
};

/// Plain run-twice: `probe(i, vpn) -> IterAction` evaluates only the
/// termination condition; `work(i, vpn)` is the side-effecting body, run as
/// an exact DOALL over [0, trip).
template <class Probe, class Work>
RunTwiceReport run_twice_while(ThreadPool& pool, long u, Probe&& probe,
                               Work&& work) {
  RunTwiceReport out;
  WLP_OBS_COUNT("wlp.runtwice.runs", 1);
  QuitResult pass1{};
  {
    WLP_TRACE_SCOPE("runtwice.probe", u, 0);
    pass1 = doall_quit(pool, 0, u, probe);
  }
  out.probe_started = pass1.started;

  {
    WLP_TRACE_SCOPE("runtwice.work", pass1.trip, 0);
    doall(pool, 0, pass1.trip, work);
  }
  out.exec.method = Method::kInduction2;
  out.exec.trip = pass1.trip;
  out.exec.started = pass1.trip;
  out.exec.overshot = 0;        // pass 2 runs exactly the valid range
  out.exec.used_stamps = false; // the whole point
  return out;
}

/// Speculative run-twice (Section 5): pass 2 is a DO loop of known length
/// with unanalyzable accesses, so it runs under the PD test.  No stamps are
/// needed even here — with the trip known there is no overshoot, only the
/// independence question remains.  `work` must route accesses through the
/// targets; `run_sequential() -> void` is the fallback over [0, trip).
///
/// Pass 2 delegates to speculative_while, so multi-array target sets get
/// the SpecRound's fused checkpoint/restore (one parallel pass over all
/// targets, one wlp.undo.* publication) with no wiring here.
template <class Probe, class Work, class SeqRun>
RunTwiceReport run_twice_speculative(ThreadPool& pool, long u, Probe&& probe,
                                     std::span<SpecTarget* const> targets,
                                     Work&& work, SeqRun&& run_sequential) {
  RunTwiceReport out;
  WLP_OBS_COUNT("wlp.runtwice.runs", 1);
  QuitResult pass1{};
  {
    WLP_TRACE_SCOPE("runtwice.probe", u, 0);
    pass1 = doall_quit(pool, 0, u, probe);
  }
  out.probe_started = pass1.started;
  const long trip = pass1.trip;

  out.exec = speculative_while(
      pool, trip, targets,
      [&](long i, unsigned vpn) {
        work(i, vpn);
        return IterAction::kContinue;
      },
      [&] {
        run_sequential(trip);
        return trip;
      });
  out.exec.trip = trip;
  return out;
}

}  // namespace wlp
