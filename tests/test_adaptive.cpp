#include <gtest/gtest.h>

#include "wlp/core/adaptive.hpp"

namespace wlp {
namespace {

TEST(LoopStatistics, TripEstimateIsTheMean) {
  LoopStatistics st;
  st.record_trip(100);
  st.record_trip(200);
  st.record_trip(300);
  EXPECT_EQ(st.invocations(), 3);
  EXPECT_EQ(st.estimated_trip(), 200);
}

TEST(LoopStatistics, ConfidenceTightWhenStable) {
  LoopStatistics st;
  for (int k = 0; k < 10; ++k) st.record_trip(500);
  EXPECT_DOUBLE_EQ(st.confidence(), 1.0);
  // The Section 8.1 threshold: n'_i = confidence * n_i = 500.
  EXPECT_EQ(st.stamp_threshold().value, 500);
}

TEST(LoopStatistics, ConfidenceDropsWhenVolatile) {
  LoopStatistics st;
  st.record_trip(100);
  st.record_trip(1000);
  EXPECT_LT(st.confidence(), 0.6);
  EXPECT_LT(st.stamp_threshold().value, st.estimated_trip());
}

TEST(LoopStatistics, EmptyIsSafe) {
  LoopStatistics st;
  EXPECT_EQ(st.estimated_trip(), 0);
  EXPECT_DOUBLE_EQ(st.confidence(), 0.0);
  EXPECT_DOUBLE_EQ(st.parallel_probability(), 1.0);  // optimistic default
}

TEST(LoopStatistics, FailureHistoryLowersParallelProbability) {
  LoopStatistics st;
  ExecReport pass;
  pass.pd_tested = true;
  pass.pd_passed = true;
  pass.trip = 100;
  ExecReport fail = pass;
  fail.pd_passed = false;
  fail.reexecuted_sequentially = true;

  for (int k = 0; k < 3; ++k) st.record(pass);
  EXPECT_DOUBLE_EQ(st.parallel_probability(), 1.0);
  st.record(fail);
  EXPECT_DOUBLE_EQ(st.parallel_probability(), 0.75);
}

TEST(LoopStatistics, SpeculationGateFollowsHistory) {
  // A loop with good attainable speedup but a failure-prone history.
  Prediction pred;
  pred.spat = 4.0;
  pred.failed_slowdown = 5.0 / 8.0;

  LoopStatistics healthy;
  ExecReport pass;
  pass.pd_tested = true;
  pass.pd_passed = true;
  healthy.record(pass);
  EXPECT_TRUE(healthy.should_speculate(pred));

  LoopStatistics burned;
  ExecReport fail;
  fail.pd_tested = true;
  fail.pd_passed = false;
  for (int k = 0; k < 10; ++k) burned.record(fail);
  EXPECT_FALSE(burned.should_speculate(pred));
}

TEST(LoopStatistics, MixedHistoryBalancesExpectation) {
  Prediction pred;
  pred.spat = 2.0;
  pred.failed_slowdown = 2.5;  // p = 2: failures are expensive
  LoopStatistics st;
  ExecReport pass, fail;
  pass.pd_tested = fail.pd_tested = true;
  pass.pd_passed = true;
  fail.pd_passed = false;
  // 50/50 history: expected = 0.5*2.0 + 0.5/(3.5) = 1.14 > 1.05 -> go.
  st.record(pass);
  st.record(fail);
  EXPECT_TRUE(st.should_speculate(pred));
  // 1/4 success: expected = 0.25*2 + 0.75/3.5 = 0.71 -> no.
  st.record(fail);
  st.record(fail);
  EXPECT_FALSE(st.should_speculate(pred));
}

TEST(ExpectedSpeculativeSpeedup, BlendsHistoryIntoThePrediction) {
  Prediction pred;
  pred.spat = 4.0;
  pred.failed_slowdown = 1.0;
  // Certain success: the full attainable speedup.
  EXPECT_DOUBLE_EQ(expected_speculative_speedup(pred, 1.0), 4.0);
  // Certain failure: pure slowdown, 1/(1+slowdown).
  EXPECT_DOUBLE_EQ(expected_speculative_speedup(pred, 0.0), 0.5);
  // 50/50 blend, and out-of-range probabilities clamp.
  EXPECT_DOUBLE_EQ(expected_speculative_speedup(pred, 0.5), 2.25);
  EXPECT_DOUBLE_EQ(expected_speculative_speedup(pred, 7.0), 4.0);
  EXPECT_DOUBLE_EQ(expected_speculative_speedup(pred, -1.0), 0.5);
}

TEST(LoopStatistics, MarksPerIterationComesFromPdTestedRunsOnly) {
  LoopStatistics st;

  ExecReport plain;  // never shadowed: must not dilute the average
  plain.trip = plain.started = 100;
  plain.shadow_marks = 0;
  st.record(plain);

  ExecReport spec;
  spec.pd_tested = true;
  spec.trip = spec.started = 100;
  spec.shadow_marks = 300;  // 3 marks per iteration
  st.record(spec);
  st.record(spec);

  EXPECT_DOUBLE_EQ(st.marks_per_iteration(), 3.0);

  const OverheadProfile o = st.observed_profile();
  // a = marks/iter * estimated trip (trips: 100, 100, 100 -> 100).
  EXPECT_EQ(o.accesses, 300);
  EXPECT_TRUE(o.pd_test);
  EXPECT_TRUE(o.needs_undo);
}

TEST(LoopStatistics, HistoryDrivenShouldSpeculate) {
  // A loop with lots of remainder work and a light measured instrumentation
  // tax: speculation should be recommended; crank the measured tax up and
  // the same history must flip the decision.
  LoopTiming t{/*t_rem=*/10000.0, /*t_rec=*/10.0};

  LoopStatistics cheap;
  ExecReport r;
  r.pd_tested = true;
  r.pd_passed = true;
  r.trip = r.started = 1000;
  r.shadow_marks = 1000;  // 1 mark per iteration
  cheap.record(r);
  EXPECT_TRUE(cheap.should_speculate(t, 8, DispatcherParallelism::kFull));

  LoopStatistics taxed;
  r.shadow_marks = 1000 * 400;  // 400 marks per iteration: tax dominates
  taxed.record(r);
  EXPECT_FALSE(taxed.should_speculate(t, 8, DispatcherParallelism::kFull));
}

}  // namespace
}  // namespace wlp
