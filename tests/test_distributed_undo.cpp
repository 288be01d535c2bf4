// The write-log undo of a distributed loop (Section 4): a block that runs
// before the exit that bounds it overshoots, and only its valid writes may
// survive.  distribute() puts every exit ahead of the blocks it controls, so
// these cases hand run_distributed a distribution with the exit last.
#include <gtest/gtest.h>

#include "wlp/analysis/distribute.hpp"

namespace wlp::ir {
namespace {

Block block_of(std::vector<int> stmts) {
  Block b;
  b.stmts = std::move(stmts);
  return b;
}

TEST(DistributedUndo, LaterExitDiscardsTheOvershotWrites) {
  // A[i] = i + 1 ; B[0] = i ; exit-if i >= 5, with the exit in a block of
  // its own after the writes: the write block runs all 20 iterations, and
  // the undo keeps iterations 0..5 (the writes precede the exit).
  Loop loop;
  loop.max_iters = 20;
  loop.body.push_back(assign_array("A", index(), bin('+', index(), cnst(1))));
  loop.body.push_back(assign_array("B", cnst(0), index()));
  loop.body.push_back(exit_if(bin('G', index(), cnst(5))));
  Distribution d;
  d.blocks = {block_of({0, 1}), block_of({2})};

  Env base;
  base.arrays["A"] = std::vector<double>(20, -1.0);
  base.arrays["B"] = {-1.0};
  Env seq = base, dist = base;
  const long trip = run_sequential(loop, seq);
  ASSERT_EQ(trip, 5);
  EXPECT_EQ(run_distributed(loop, d, dist), trip);
  EXPECT_EQ(dist.arrays.at("A"), seq.arrays.at("A"));  // A[6..19] back at -1
  EXPECT_EQ(dist.arrays.at("B"), seq.arrays.at("B"));  // B[0] = 5, not 19
}

TEST(DistributedUndo, StatementsPastTheTripDoNotRun) {
  // exit-if i >= 5 ; A[i] = 1 with A sized to the trip: the write block
  // must stop at the exit's limit, or its store at i = 5 is out of range.
  Loop loop;
  loop.max_iters = 100;
  loop.body.push_back(exit_if(bin('G', index(), cnst(5))));
  loop.body.push_back(assign_array("A", index(), cnst(1)));

  Env base;
  base.arrays["A"] = std::vector<double>(5, 0.0);
  Env seq = base, dist = base;
  const long trip = run_sequential(loop, seq);
  ASSERT_EQ(trip, 5);
  EXPECT_EQ(run_distributed(loop, distribute(loop), dist), trip);
  EXPECT_EQ(dist.arrays.at("A"), seq.arrays.at("A"));
}

}  // namespace
}  // namespace wlp::ir
