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
//   * sequential blocks (planned as DOACROSS) run in place, in program
//     order, as general recurrence blocks do: every interpreted statement
//     would sit in the DOACROSS's ordered phase, so its pipeline would
//     only move the frontier from thread to thread;
//   * exits distribute with their blocks; after all blocks ran, every
//     store is undone from the value it displaced (descending store
//     order), and only the writes valid under the final exit set are
//     replayed — the undo step of Section 4, in write-log form.
//
// The sequential block loop and each DOALL iteration run one step: the
// block's statements at iteration i that are still under their exit
// limits.  run_distributed() (distribute.hpp) is this interpreter with
// every block run as one sequential loop of that step; run_sequential()
// (loop_ir.hpp) stays the independent reference.
//
// The contract (enforced by tests): final Env state and trip count are
// identical to run_sequential(), up to floating-point reassociation in
// parallel-prefix-evaluated recurrences.
//
// Thread-safety requirement on Env: the call table's functions must be
// pure/thread-safe (they are invoked concurrently).
#pragma once

#include "wlp/analysis/plan.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp::ir {

struct PlanExecution {
  long trip = 0;
  bool speculation_failed = false;  ///< PD verdict failed -> sequential rerun
  long parallel_blocks = 0;         ///< blocks executed as DOALLs
  long prefix_blocks = 0;           ///< recurrences evaluated by parallel prefix
  long logged_writes = 0;
  long discarded_writes = 0;  ///< overshot writes dropped during replay
  double replay_ns = 0;  ///< wall time in the undo/replay phase (Ta)
  // What this execution cost the process memory budget (wlp::mem::Budget
  // deltas between entry and exit): how many arena blocks the run consumed
  // and how many of those reached the OS.  A steady-state caller re-running
  // the same plan should see both deltas go to zero — the PD logs'
  // storage recycles through the arenas.
  long mem_arena_allocs = 0;  ///< arena blocks handed out during the run
  long mem_slow_allocs = 0;   ///< ... of which came from the OS (cold path)
  long mem_bytes_live = 0;    ///< process-wide arena bytes live at exit
};

PlanExecution run_parallel_plan(ThreadPool& pool, const Loop& loop,
                                const ParallelPlan& plan, Env& env);

}  // namespace wlp::ir
