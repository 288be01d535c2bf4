// Umbrella header: the full public API of the WHILE-loop parallelization
// library.  Include this for everything, or pick the focused headers below.
//
// The library in one paragraph: WHILE loops and DO loops with conditional
// exits have unknown iteration spaces, so classic compilers run them
// sequentially.  This runtime executes them in parallel anyway — evaluating
// closed-form and associative dispatchers concurrently, overlapping the
// remainder of inherently sequential (linked-list) dispatchers, detecting
// the real exit with per-processor minima and a QUIT, undoing whatever ran
// past it with checkpoints and time-stamps, and validating speculation on
// unanalyzable access patterns with the run-time PD dependence test.  A
// small compiler-analysis layer automates the whole pipeline for loops
// expressed in its IR; a simulated multiprocessor reproduces the original
// evaluation's speedup figures.
#pragma once

// Scheduling substrate: thread pool, DOALL + QUIT, prefix, reductions,
// DOACROSS pipeline.
#include "wlp/sched/thread_pool.hpp"   // IWYU pragma: export
#include "wlp/sched/doall.hpp"         // IWYU pragma: export
#include "wlp/sched/doacross.hpp"      // IWYU pragma: export
#include "wlp/sched/parallel_prefix.hpp"  // IWYU pragma: export
#include "wlp/sched/reduce.hpp"        // IWYU pragma: export

// Core: taxonomy, the WHILE methods, undo machinery, PD test, speculation,
// strategies, cost model, adaptation.
#include "wlp/core/taxonomy.hpp"       // IWYU pragma: export
#include "wlp/core/report.hpp"         // IWYU pragma: export
#include "wlp/core/while_induction.hpp"  // IWYU pragma: export
#include "wlp/core/while_assoc.hpp"    // IWYU pragma: export
#include "wlp/core/while_general.hpp"  // IWYU pragma: export
#include "wlp/core/while_doany.hpp"    // IWYU pragma: export
#include "wlp/core/wu_lewis.hpp"       // IWYU pragma: export
#include "wlp/core/constructs.hpp"     // IWYU pragma: export
#include "wlp/core/sparse_backup.hpp"  // IWYU pragma: export
#include "wlp/core/shadow.hpp"         // IWYU pragma: export
#include "wlp/core/spec_round.hpp"    // IWYU pragma: export
#include "wlp/core/speculative.hpp"    // IWYU pragma: export
#include "wlp/core/speculative_privatized.hpp"  // IWYU pragma: export
#include "wlp/core/speculative_strips.hpp"      // IWYU pragma: export
#include "wlp/core/sparse_spec.hpp"    // IWYU pragma: export
#include "wlp/core/run_twice.hpp"      // IWYU pragma: export
#include "wlp/core/strategies.hpp"     // IWYU pragma: export
#include "wlp/core/sliding_window.hpp" // IWYU pragma: export
#include "wlp/core/cost_model.hpp"     // IWYU pragma: export
#include "wlp/core/adaptive.hpp"       // IWYU pragma: export

// Compiler-analysis layer: loop IR -> dependence graph -> distribution ->
// plan -> parallel execution.
#include "wlp/analysis/loop_ir.hpp"    // IWYU pragma: export
#include "wlp/analysis/depgraph.hpp"   // IWYU pragma: export
#include "wlp/analysis/recurrence.hpp" // IWYU pragma: export
#include "wlp/analysis/distribute.hpp" // IWYU pragma: export
#include "wlp/analysis/plan.hpp"       // IWYU pragma: export
#include "wlp/analysis/execute_plan.hpp"  // IWYU pragma: export

// Simulated multiprocessor (speedup reproduction).
#include "wlp/sim/machine.hpp"         // IWYU pragma: export
#include "wlp/sim/simulator.hpp"       // IWYU pragma: export

// Observability: per-thread trace rings (Chrome trace export) + metrics
// registry.  The hooks are always compiled in; tracing (off by default) and
// metrics (on) are switched at run time.
#include "wlp/obs/obs.hpp"             // IWYU pragma: export
