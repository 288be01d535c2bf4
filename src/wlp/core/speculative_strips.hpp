// Strip-mined speculation — the closing case of Section 5.
//
// "If the termination condition of the WHILE loop is dependent (data or
// control) upon a variable with unknown dependences ... the last valid
// iteration of the loop might be incorrectly determined, or, even worse,
// the termination condition might never be met (an infinite loop).  In
// this situation, the best solution is probably to strip-mine the loop,
// and to run the PD test on each strip."
//
// strip_speculative_while() therefore commits the loop strip by strip:
//
//   for each strip [base, base+s):
//     checkpoint -> speculative DOALL -> PD analysis filtered by the
//     strip's trip;
//     on success: undo the strip's overshoot, COMMIT, continue;
//     on failure: restore the strip, execute it sequentially (which also
//     re-evaluates the terminator against committed state), then continue
//     speculating on the next strip.
//
// Because each strip's exit decisions are validated before the next strip
// starts, a dependence-corrupted terminator can mislead the execution by
// at most one strip — and the sequential re-execution of that strip fixes
// it.  The strip length also bounds the time-stamp memory (Section 8.1).
// Each strip is one begin/run/validate/commit-or-rollback cycle of a
// single SpecRound (spec_round.hpp); this driver keeps only the strip
// schedule and its budget control.
#pragma once

#include <algorithm>
#include <span>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/speculative.hpp"

namespace wlp {

struct StripSpecReport {
  ExecReport exec;
  long strips_run = 0;
  long strips_failed = 0;  ///< strips that fell back to sequential execution
  long claims = 0;         ///< scheduler grabs across all strips (see
                           ///< QuitResult::claims)
  // Transaction-aware strip control (active when opts.memory_budget != 0):
  // the driver polls the transaction's fused memory_bytes() after every
  // strip and halves the NEXT strip when the measured footprint crosses
  // half the budget (committing more often pins less), growing back
  // additively while comfortable.  exec.peak_spec_bytes carries the max
  // footprint over all strips, budget or not.
  long strip_shrinks = 0;  ///< times the next strip was halved
  long final_strip = 0;    ///< strip length in effect when the loop ended
};

/// `body(i, vpn) -> IterAction` is the instrumented parallel body (routes
/// accesses through the targets).  `run_strip_sequential(base, end) -> trip`
/// executes iterations [base, end) serially against raw data and returns
/// the trip count (== end when no exit fires inside the strip).
template <class Body, class SeqStrip>
StripSpecReport strip_speculative_while(ThreadPool& pool, long u, long strip,
                                        std::span<SpecTarget* const> targets,
                                        Body&& body, SeqStrip&& run_strip_sequential,
                                        SpecOptions opts = {}) {
  StripSpecReport out;
  out.exec.method = Method::kStripMined;
  if (strip <= 0) strip = u;

  // ONE round (and so one transaction) for the whole strip sequence: the
  // chunk maps are built once here, so every strip's begin/undo/restore
  // allocates nothing.
  SpecRound round(pool, targets, out.exec);

  long cur_strip = strip;
  out.final_strip = cur_strip;
  long base = 0;
  while (base < u) {
    const long end = std::min(base + cur_strip, u);
    ++out.strips_run;
    WLP_TRACE_SCOPE("strip", base, end - base);
    WLP_OBS_COUNT("wlp.strip.runs", 1);

    round.begin();
    QuitResult qr{};
    round.run([&] { qr = doall_quit(pool, base, end, body, opts.doall); });
    out.claims += qr.claims;
    const bool valid = round.validate(qr.trip);

    // Transaction-aware strip control: the backups are at their fullest
    // right after the strip's parallel section, so poll the fused footprint
    // here — before commit/restore clears it — and resize the NEXT strip
    // against the budget.
    if (opts.memory_budget != 0) {
      if (round.txn().memory_bytes() * 2 > opts.memory_budget) {
        const long before = cur_strip;
        cur_strip = std::max(1L, cur_strip / 2);
        if (cur_strip != before) ++out.strip_shrinks;
      } else {
        cur_strip = std::min(strip, cur_strip + std::max(1L, strip / 8));
      }
      out.final_strip = cur_strip;
    }

    if (!valid) {
      // Restore the strip and execute it sequentially, which also
      // re-evaluates the terminator against committed state.
      ++out.strips_failed;
      WLP_OBS_COUNT("wlp.strip.failures", 1);
      const long trip =
          round.rollback([&] { return run_strip_sequential(base, end); });
      out.exec.started += trip - base;
      if (trip < end) {
        out.exec.trip = trip;
        return out;
      }
      base = end;
      continue;
    }

    out.exec.started += qr.started;
    if (qr.trip < end) {  // the loop genuinely ends inside this strip
      out.exec.trip = qr.trip;
      out.exec.overshot += std::max(0L, qr.started - (qr.trip - base));
      round.commit(qr.trip);
      return out;
    }
    round.txn().discard();  // nothing overshot: commit without an undo pass
    base = end;
  }

  out.exec.trip = u;
  return out;
}

}  // namespace wlp
