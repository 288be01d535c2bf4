// Loop distribution and fusion — Sections 2 and 6.
//
// distribute() splits the loop body into the strongly connected components
// of its dependence graph, in a topological order of the condensation, and
// classifies each resulting block (parallel / induction / associative /
// general recurrence / sequential / unknown-access).  The termination
// conditions land in whichever block their dependences tie them to — an
// exit strongly connected to the dispatcher stays with the dispatcher
// (the RI case); an exit tied to remainder values rides with the remainder
// (the RV case).
//
// fuse() then regroups contiguous blocks per Section 6: maximal runs of
// parallel blocks merge into one DOALL candidate; maximal runs of
// sequential/general blocks merge into one sequential (DOACROSS-schedulable)
// block; induction, associative, and unknown-access blocks keep their
// identity so the matching Section 3/5 method can be applied.  Fusing
// contiguous blocks of a distribution is always legal: it merely undoes part
// of the distribution.
//
// run_distributed() is the executable semantics of the transformed loop,
// which the tests compare against run_sequential(): blocks execute one
// after another (each as its own sequential loop), scalars crossing block
// boundaries are expanded into per-iteration arrays, and overshot work —
// iterations a later block's exit invalidates — is undone the way Section 4
// prescribes for the runtime.  It is the plan interpreter
// (execute_plan.cpp) with every block run sequentially, so it keeps no
// evaluator, exit rule, write log or entry copy of its own.
#pragma once

#include <string>
#include <vector>

#include "wlp/analysis/recurrence.hpp"

namespace wlp::ir {

struct Block {
  std::vector<int> stmts;  ///< statement indices, textual order
  RecurrenceInfo rec;
};

struct Distribution {
  std::vector<Block> blocks;  ///< condensation topological order
};

/// Distribute `loop` into classified pi-blocks.
Distribution distribute(const Loop& loop, const DepGraph& g);
Distribution distribute(const Loop& loop);

/// Section 6 fusion over a distribution (see file header).
Distribution fuse(const Loop& loop, const Distribution& d);

/// Execute the distributed form against `env`; returns the trip count.
/// Must produce state identical to run_sequential() on the same loop.
long run_distributed(const Loop& loop, const Distribution& d, Env& env);

std::string to_string(const Distribution& d, const Loop& loop);

}  // namespace wlp::ir
