// One speculation round: the Section 5 protocol every checkpointing driver
// shares, and the only place those drivers read the clock, open protocol
// trace spans or publish wlp.spec.* / wlp.pd.marks.
//
//   begin     reset marks + fused checkpoint                         Tb
//   run       exception boundary around the driver's parallel section:
//             an exception is a failed speculation (Section 5.1)
//   validate  marks, peak footprint, backup overflow, then the
//             trip-filtered PD test                            Td's analysis
//   commit    undo the overshoot through the per-worker write logs   Ta
//   rollback  full restore + sequential re-execution                 Ta
//
// Every step writes into the caller's ExecReport by one rule: times, marks
// and undone writes accumulate, the peak is a max, and the flags latch, so a driver that runs one round per strip reports the sum.
// DESIGN.md §12 lists the schedule each driver keeps around these steps.
#pragma once

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "wlp/core/report.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/core/txn.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp {

class SpecRound {
 public:
  SpecRound(ThreadPool& pool, std::span<SpecTarget* const> targets,
            ExecReport& report)
      : pool_(pool), targets_(targets), r_(report), txn_(targets) {
    r_.used_checkpoint = true;
    r_.used_stamps = true;
  }

  /// The round's transaction: drivers poll its footprint, and a round that
  /// committed with no overshoot discards its backups through it.
  SpecTransaction& txn() noexcept { return txn_; }

  void begin() {
    WLP_TRACE_SCOPE("spec.checkpoint", txn_.targets(), 0);
    WLP_OBS_COUNT("wlp.spec.rounds", 1);
    threw_ = false;
    const auto t0 = std::chrono::steady_clock::now();
    txn_.begin(&pool_);
    r_.checkpoint_ns += detail::spec_ns_since(t0);
  }

  /// Runs `parallel()`; an exception it throws dooms the round.
  template <class F>
  void run(F&& parallel) {
    try {
      std::forward<F>(parallel)();
    } catch (...) {
      threw_ = true;
      WLP_OBS_COUNT("wlp.spec.exceptions", 1);
    }
  }

  /// True when the round's parallel execution up to `trip` is valid and
  /// may be committed.
  bool validate(long trip) {
    // Marks are log lengths: fold them here, off the hot path.
    const long marks = txn_.marks();
    r_.shadow_marks += marks;
    WLP_OBS_COUNT("wlp.pd.marks", marks);
    // Backups are at their fullest right after the parallel section.
    r_.peak_spec_bytes = std::max(r_.peak_spec_bytes, txn_.memory_bytes());
    // A sparse backup that hit capacity dropped writes: the parallel
    // execution is incomplete whatever the PD test would say (the backup
    // still restores the exact pre-round state, because overflowing
    // writers skipped their data store too).
    if (txn_.overflowed()) {
      r_.backup_overflow = true;
      WLP_OBS_COUNT("wlp.spec.backup_overflow", 1);
      return false;
    }
    if (threw_) return false;

    WLP_TRACE_SCOPE("pd.analyze", trip, 0);
    bool tested = false;
    bool passed = true;
    for (SpecTarget* t : targets_) {
      if (!t->shadowed()) continue;
      tested = true;
      passed = passed && t->analyze(pool_, trip).fully_parallel();
    }
    if (tested) {
      r_.pd_tested = true;
      r_.pd_passed = r_.pd_passed && passed;
      WLP_OBS_COUNT(passed ? "wlp.spec.pd_pass" : "wlp.spec.pd_fail", 1);
    }
    return passed;
  }

  /// Keep the valid iterations: undo every write logged at or past `trip`.
  void commit(long trip) {
    WLP_TRACE_SCOPE_NAMED(undo_scope, "undo", trip, 0);
    const auto t0 = std::chrono::steady_clock::now();
    const long undone = txn_.undo_beyond(trip, &pool_);
    r_.undo_ns += detail::spec_ns_since(t0);
    r_.undone_writes += undone;
    undo_scope.args(static_cast<std::uint64_t>(trip),
                    static_cast<std::uint64_t>(undone));
    WLP_OBS_HIST("wlp.spec.overshoot", r_.overshot);
    WLP_OBS_HIST("wlp.spec.undo_writes", undone);
  }

  /// Misspeculation: restore the full checkpoint — never a log-filtered
  /// undo, since writes below a stamping threshold are not logged — and
  /// return `run_sequential()`, which re-executes against the raw data.
  template <class SeqRun>
  decltype(auto) rollback(SeqRun&& run_sequential) {
    WLP_TRACE_SCOPE("spec.seq_reexec", 0, 0);
    WLP_OBS_COUNT("wlp.spec.seq_reexec", 1);
    const auto t0 = std::chrono::steady_clock::now();
    txn_.restore_all(&pool_);
    r_.undo_ns += detail::spec_ns_since(t0);
    r_.reexecuted_sequentially = true;
    return std::forward<SeqRun>(run_sequential)();
  }

 private:
  ThreadPool& pool_;
  std::span<SpecTarget* const> targets_;
  ExecReport& r_;
  SpecTransaction txn_;
  bool threw_ = false;
};

}  // namespace wlp
