#include <gtest/gtest.h>

#include <cmath>

#include "wlp/analysis/execute_plan.hpp"
#include "wlp/support/prng.hpp"

namespace wlp::ir {
namespace {

Env rich_env(long n) {
  Env e;
  e.scalars = {{"r", 1.0}, {"k", 0.0}, {"p", 40.0}, {"V", 1e6}};
  e.arrays["A"] = std::vector<double>(static_cast<std::size_t>(n), 0.0);
  e.arrays["B"] = std::vector<double>(static_cast<std::size_t>(n), 0.0);
  e.arrays["R"] = std::vector<double>(static_cast<std::size_t>(n), 0.0);
  e.arrays["S"] = std::vector<double>(static_cast<std::size_t>(n), 0.0);
  for (long i = 0; i < n; ++i) {
    e.arrays["R"][static_cast<std::size_t>(i)] = std::fmod(i * 0.37, 1.0);
    e.arrays["S"][static_cast<std::size_t>(i)] =
        static_cast<double>((i * 13) % n);  // a permutation-ish subscript table
  }
  e.funcs["f"] = [](double x) { return x * 0.5; };
  e.funcs["next"] = [](double x) { return x - 1; };
  e.funcs["work"] = [](double x) { return x * x + 1; };
  return e;
}

void expect_plan_equivalent(ThreadPool& pool, const Loop& loop, Env base,
                            double tol = 0.0) {
  Env seq = base, par = base;
  const long t1 = run_sequential(loop, seq);
  const ParallelPlan plan = make_plan(loop);
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, par);
  EXPECT_EQ(ex.trip, t1) << plan.to_text(loop);
  for (const auto& [name, val] : seq.scalars) {
    ASSERT_TRUE(par.scalars.count(name)) << name;
    EXPECT_NEAR(par.scalars.at(name), val, tol) << name << "\n" << plan.to_text(loop);
  }
  for (const auto& [name, arr] : seq.arrays) {
    const auto& other = par.arrays.at(name);
    ASSERT_EQ(arr.size(), other.size());
    for (std::size_t i = 0; i < arr.size(); ++i)
      EXPECT_NEAR(other[i], arr[i], tol)
          << name << "[" << i << "]\n" << plan.to_text(loop);
  }
}

TEST(ExecutePlan, InductionDispatcherDoall) {
  // k = k + 2 ; A[i] = k + R[i] ; exit-if k > 40
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 100;
  loop.body.push_back(assign_scalar("k", bin('+', scalar("k"), cnst(2))));
  loop.body.push_back(
      assign_array("A", index(), bin('+', scalar("k"), array("R", index()))));
  loop.body.push_back(exit_if(bin('>', scalar("k"), cnst(40))));
  expect_plan_equivalent(pool, loop, rich_env(100));
}

TEST(ExecutePlan, AssociativeDispatcherViaParallelPrefix) {
  // r = 0.5*r + 1 ; A[i] = work(r)   (floating point: tolerance for the
  // prefix computation's reassociation)
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 200;
  loop.body.push_back(exit_if(bin('G', call("f", scalar("r")), scalar("V"))));
  loop.body.push_back(assign_array("A", index(), call("work", scalar("r"))));
  loop.body.push_back(assign_scalar(
      "r", bin('+', bin('*', cnst(0.5), scalar("r")), cnst(1))));

  Env base = rich_env(200);
  Env par = base;
  const ParallelPlan plan = make_plan(loop);
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, par);
  EXPECT_EQ(ex.prefix_blocks, 1);  // the real Section 3.2 path ran

  expect_plan_equivalent(pool, loop, base, 1e-9);
}

TEST(ExecutePlan, GeneralRecurrenceListLoop) {
  // while (p != 0) { A[i] = work(p); p = next(p) }
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 100;
  loop.body.push_back(exit_if(bin('=', scalar("p"), cnst(0))));
  loop.body.push_back(assign_array("A", index(), call("work", scalar("p"))));
  loop.body.push_back(assign_scalar("p", call("next", scalar("p"))));
  expect_plan_equivalent(pool, loop, rich_env(100));
}

TEST(ExecutePlan, RVExitWithOvershootUndo) {
  // A[i] = R[i]*3 ; exit-if A[i] > 2.0  — RV exit; overshot writes must be
  // discarded by the replay.
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 80;
  loop.body.push_back(
      assign_array("A", index(), bin('*', array("R", index()), cnst(3))));
  loop.body.push_back(exit_if(bin('>', array("A", index()), cnst(2.0))));

  Env base = rich_env(80);
  Env par = base;
  const ParallelPlan plan = make_plan(loop);
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, par);
  EXPECT_GE(ex.logged_writes, ex.trip);
  expect_plan_equivalent(pool, loop, base);
}

TEST(ExecutePlan, UnknownAccessPassesPDWhenIndependent) {
  // A[S[i]] = i  where S is (i*13) mod n — a bijection, so the PD test
  // passes and the speculation sticks.
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 100;
  loop.body.push_back(assign_array("A", array("S", index()), index()));

  Env base = rich_env(100);
  Env par = base;
  const ParallelPlan plan = make_plan(loop);
  ASSERT_EQ(plan.pd_arrays.size(), 1u);
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, par);
  EXPECT_FALSE(ex.speculation_failed);
  expect_plan_equivalent(pool, loop, base);
}

TEST(ExecutePlan, UnknownAccessWriteThenReadAcrossStatementsPassesPD) {
  // A[S[i]] = i ; x = A[S[i]]  — statement 2 reads the element statement 1
  // wrote in the same iteration: a covered read, so the block passes the
  // PD test although its two statements mark one iteration each.
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 100;
  loop.body.push_back(assign_array("A", array("S", index()), index()));
  loop.body.push_back(assign_scalar("x", array("A", array("S", index()))));

  Env base = rich_env(100);
  base.scalars["x"] = 0;
  Env par = base;
  const ParallelPlan plan = make_plan(loop);
  ASSERT_EQ(plan.pd_arrays.size(), 1u);
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, par);
  EXPECT_FALSE(ex.speculation_failed);
  expect_plan_equivalent(pool, loop, base);
}

TEST(ExecutePlan, UnknownAccessFailsPDAndFallsBack) {
  // A[S2[i]] = i where S2 collides: the PD test must fail and the fallback
  // must still produce the exact sequential result.
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 100;
  loop.body.push_back(assign_array("A", array("S", index()), index()));
  // Every iteration exposed-reads A[0], which half the iterations write:
  // a genuine cross-iteration flow dependence.
  loop.body.push_back(assign_scalar("x", array("A", cnst(0))));

  Env base = rich_env(100);
  base.scalars["x"] = 0;
  // S with collisions: every other slot maps to 0.
  for (long i = 0; i < 100; i += 2)
    base.arrays["S"][static_cast<std::size_t>(i)] = 0;

  Env par = base;
  const ParallelPlan plan = make_plan(loop);
  const PlanExecution ex = run_parallel_plan(pool, loop, plan, par);
  EXPECT_TRUE(ex.speculation_failed);

  Env seq = base;
  const long t = run_sequential(loop, seq);
  EXPECT_EQ(ex.trip, t);
  EXPECT_EQ(par.arrays.at("A"), seq.arrays.at("A"));
  EXPECT_EQ(par.scalars.at("x"), seq.scalars.at("x"));
}

TEST(ExecutePlan, SequentialChainBlockViaDoacross) {
  // A[i+1] = A[i] + R[i]: an unrecognized cycle — the plan schedules it as
  // DOACROSS and the result must match exactly.
  ThreadPool pool(4);
  Loop loop;
  loop.max_iters = 60;
  loop.body.push_back(assign_array(
      "A", bin('+', index(), cnst(1)),
      bin('+', array("A", index()), array("R", index()))));
  expect_plan_equivalent(pool, loop, rich_env(61));
}

// Property: randomized loops — planned parallel execution == sequential.
Loop random_loop(Xoshiro256& rng) {
  Loop loop;
  loop.max_iters = 10 + static_cast<long>(rng.below(40));
  switch (rng.below(4)) {
    case 0:
      loop.body.push_back(assign_scalar("k", bin('+', scalar("k"), cnst(1))));
      break;
    case 1:
      loop.body.push_back(assign_scalar(
          "r", bin('+', bin('*', cnst(2), scalar("r")), cnst(1))));
      break;
    case 2:
      loop.body.push_back(assign_scalar("p", call("next", scalar("p"))));
      loop.body.push_back(exit_if(bin('=', scalar("p"), cnst(0))));
      break;
    default:
      break;
  }
  const char* arrays[] = {"A", "B"};
  const auto stmts = 1 + rng.below(2);
  for (std::uint64_t k = 0; k < stmts; ++k) {
    const char* arr = arrays[k % 2];
    switch (rng.below(3)) {
      case 0:
        loop.body.push_back(assign_array(arr, index(), bin('*', index(), cnst(2))));
        break;
      case 1:
        loop.body.push_back(
            assign_array(arr, index(), bin('+', array("R", index()), cnst(1))));
        break;
      default:
        loop.body.push_back(assign_array(
            arr, bin('+', index(), cnst(1)),
            bin('+', array(arr, index()), cnst(1))));
        break;
    }
  }
  if (rng.chance(0.5))
    loop.body.push_back(
        exit_if(bin('G', index(), cnst(static_cast<double>(rng.below(30))))));
  if (rng.chance(0.3))
    loop.body.push_back(exit_if(bin('>', array("A", index()), cnst(30.0))));
  return loop;
}

class PlanExecutionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanExecutionProperty, PlannedParallelMatchesSequential) {
  ThreadPool pool(4);
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const Loop loop = random_loop(rng);
    expect_plan_equivalent(pool, loop, rich_env(loop.max_iters + 1), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanExecutionProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace wlp::ir
