// Parallel execution of a planned loop — the end of the automatic
// transformation pipeline.
//
// run_parallel_plan() takes an ir::Loop, the ParallelPlan produced by
// make_plan() (dependence graph -> distribution -> fusion -> method
// selection) and executes the loop against an Env using the runtime:
//
//   * induction dispatcher blocks evaluate their closed form directly;
//   * associative dispatcher blocks evaluate their terms with the REAL
//     parallel prefix computation (AffineMap scan, Section 3.2);
//   * general recurrence blocks walk their chain sequentially into the
//     expansion (the inherently sequential case);
//   * parallel blocks run as DOALLs via doall_quit, with every array write
//     logged with its (iteration, statement) time-stamp;
//   * unknown-access blocks additionally record PD marks (one PDMarks per
//     unanalyzable array), and a failed verdict falls back to a plain
//     sequential execution;
//   * sequential blocks run as DOACROSS pipelines (ordered, overlapped is
//     not attempted for interpreted statements — program order preserved);
//   * exits distribute with their blocks; after all blocks ran, only the
//     writes valid under the final exit set are replayed onto the entry
//     state — the undo step of Section 4, in write-log form.
//
// The contract (enforced by tests): final Env state and trip count are
// identical to run_sequential(), up to floating-point reassociation in
// parallel-prefix-evaluated recurrences.
//
// Thread-safety requirement on Env: the call table's functions must be
// pure/thread-safe (they are invoked concurrently).
#pragma once

#include <cstddef>

#include "wlp/analysis/plan.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp::ir {

/// Execution-time knobs: the Section 8.2 window/budget surface applied to
/// the interpreter's parallel blocks.  Default = no budget, and the blocks
/// run as plain DOALLs exactly as before.  With a budget set, kParallel /
/// kUnknownAccess blocks run under the sliding-window controller fed by the
/// MEASURED write-log footprint (every logged store claims a ticket, so
/// ticket count x entry size is the log's live bytes — no per-worker scan).
struct PlanExecOptions {
  std::size_t memory_budget = 0;  ///< 0 = unbudgeted (plain doall_quit)
  long window = 64;               ///< initial window when budgeted
  long min_window = 2;
  long max_window = 1 << 20;
  bool charge_process_budget = false;  ///< share the process-wide ceiling
};

struct PlanExecution {
  long trip = 0;
  bool speculation_failed = false;  ///< PD verdict failed -> sequential rerun
  long parallel_blocks = 0;         ///< blocks executed as DOALLs
  long prefix_blocks = 0;           ///< recurrences evaluated by parallel prefix
  long logged_writes = 0;
  long discarded_writes = 0;  ///< overshot writes dropped during replay
  long doacross_parks = 0;    ///< futex sleeps in sequential-block pipelines
  long doacross_wait_rounds = 0;  ///< backoff rounds burned waiting on the
                                  ///< DOACROSS frontier (pipeline stall cost)
  double snapshot_ns = 0;  ///< wall time copying entry state (the Tb term of
                           ///< the plan's write-log undo scheme)
  double replay_ns = 0;    ///< wall time in the undo/replay phase (Ta)
  // Per-array backup decisions (cost_model::choose_backup on the static
  // stores-per-iteration x max_iters density estimate): how many arrays got
  // a dense entry snapshot, how many rely on the ticketed write log, and how
  // many snapshot bytes the log-undo/unwritten arrays avoided copying.
  long arrays_dense_snapshot = 0;
  long arrays_log_undo = 0;
  long snapshot_bytes_saved = 0;
  // What this execution cost the process memory budget (wlp::mem::Budget
  // deltas between entry and exit): how many arena blocks the run consumed
  // and how many of those reached the OS.  A steady-state caller re-running
  // the same plan should see both deltas go to zero — the PD logs'
  // storage recycles through the arenas.
  long mem_arena_allocs = 0;  ///< arena blocks handed out during the run
  long mem_slow_allocs = 0;   ///< ... of which came from the OS (cold path)
  long mem_bytes_live = 0;    ///< process-wide arena bytes live at exit
  // Sliding-window decisions for the budgeted parallel blocks (all zero
  // when PlanExecOptions::memory_budget was 0): what the Section 8.2
  // controller did with the write-log footprint it measured.
  long window_runs = 0;        ///< parallel blocks run under the window
  long window_final = 0;       ///< window size at the end of the last block
  long window_shrinks = 0;     ///< controller shrink decisions (all blocks)
  long window_grows = 0;       ///< controller grow decisions (all blocks)
  long window_cap = 0;         ///< final derived cap (iterations)
  long window_cap_bytes = 0;   ///< bytes that cap represents (EWMA estimate)
  long window_peak_bytes = 0;  ///< max measured logged-write footprint
};

PlanExecution run_parallel_plan(ThreadPool& pool, const Loop& loop,
                                const ParallelPlan& plan, Env& env,
                                const PlanExecOptions& opts);
PlanExecution run_parallel_plan(ThreadPool& pool, const Loop& loop,
                                const ParallelPlan& plan, Env& env);

}  // namespace wlp::ir
