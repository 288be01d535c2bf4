#include <gtest/gtest.h>

#include <cmath>

#include "wlp/core/cost_model.hpp"

namespace wlp {
namespace {

TEST(CostModel, IdealTimeFullyParallelDispatcher) {
  const LoopTiming t{800.0, 200.0};
  EXPECT_DOUBLE_EQ(ideal_parallel_time(t, 8, DispatcherParallelism::kFull),
                   1000.0 / 8);
  EXPECT_DOUBLE_EQ(ideal_speedup(t, 8, DispatcherParallelism::kFull), 8.0);
}

TEST(CostModel, IdealTimeSequentialDispatcher) {
  // Tipar = Trem/p + Trec.
  const LoopTiming t{800.0, 200.0};
  EXPECT_DOUBLE_EQ(ideal_parallel_time(t, 8, DispatcherParallelism::kSequential),
                   100.0 + 200.0);
  EXPECT_DOUBLE_EQ(ideal_speedup(t, 8, DispatcherParallelism::kSequential),
                   1000.0 / 300.0);
}

TEST(CostModel, IdealTimePrefixAddsLogTerm) {
  const LoopTiming t{800.0, 200.0};
  const double tp = ideal_parallel_time(t, 8, DispatcherParallelism::kPrefix, 2.0);
  EXPECT_DOUBLE_EQ(tp, 1000.0 / 8 + 2.0 * 3.0);  // log2(8) = 3
}

TEST(CostModel, SequentialDispatcherDominatedLoopHasNoParallelism) {
  // Trem < Trec: the loop essentially evaluates the dispatcher.
  const LoopTiming t{100.0, 900.0};
  const double spid = ideal_speedup(t, 64, DispatcherParallelism::kSequential);
  EXPECT_LT(spid, 1.2);
}

TEST(CostModel, WorstCaseFractions) {
  EXPECT_DOUBLE_EQ(worst_case_fraction(false), 0.25);
  EXPECT_DOUBLE_EQ(worst_case_fraction(true), 0.2);
}

TEST(CostModel, Section7WorstCaseBoundHolds) {
  // Construct the worst case the paper analyzes: Spid ~ p, overheads at
  // their maxima.  Spat must stay at or above the published floor.
  const unsigned p = 8;
  const LoopTiming t{8000.0, 0.0};
  OverheadProfile o;
  o.accesses = 8000;  // every unit of work is an access (maximal bookkeeping)
  o.access_cost = 1.0;
  for (const bool pd : {false, true}) {
    o.pd_test = pd;
    o.needs_undo = true;
    const Prediction pr = predict(t, o, p, DispatcherParallelism::kFull);
    EXPECT_GE(pr.spat, worst_case_fraction(pd) * pr.spid * 0.999)
        << "pd=" << pd;
  }
}

TEST(CostModel, OverheadTermsShapes) {
  OverheadProfile o;
  o.accesses = 1000;
  o.needs_undo = true;
  const OverheadTerms terms = overhead_terms(o, 10, /*spid=*/10.0);
  EXPECT_DOUBLE_EQ(terms.t_b, 100.0);  // a/p
  EXPECT_DOUBLE_EQ(terms.t_a, 100.0);
  EXPECT_DOUBLE_EQ(terms.t_d, 100.0);  // a/Spid

  o.pd_test = true;
  const OverheadTerms pd = overhead_terms(o, 10, 10.0);
  EXPECT_DOUBLE_EQ(pd.t_d, terms.t_d);  // still one bookkeeping op per access
  EXPECT_GT(pd.t_a, terms.t_a);  // post-execution analysis adds to Ta
}

TEST(CostModel, NoOverheadWhenNothingApplied) {
  OverheadProfile o;
  o.accesses = 1000;
  const OverheadTerms terms = overhead_terms(o, 8, 4.0);
  EXPECT_DOUBLE_EQ(terms.total(), 0.0);
}

TEST(CostModel, FailedPDSlowdownScalesInverselyWithP) {
  const LoopTiming t{1000.0, 0.0};
  OverheadProfile o;
  o.pd_test = true;
  const Prediction p4 = predict(t, o, 4, DispatcherParallelism::kFull);
  const Prediction p16 = predict(t, o, 16, DispatcherParallelism::kFull);
  EXPECT_DOUBLE_EQ(p4.failed_slowdown, 5.0 / 4);
  EXPECT_DOUBLE_EQ(p16.failed_slowdown, 5.0 / 16);
}

TEST(CostModel, RecommendationGate) {
  const LoopTiming mostly_serial{10.0, 990.0};
  OverheadProfile o;
  const Prediction bad =
      predict(mostly_serial, o, 8, DispatcherParallelism::kSequential);
  EXPECT_FALSE(bad.recommend);

  const LoopTiming parallel_rich{990.0, 10.0};
  const Prediction good =
      predict(parallel_rich, o, 8, DispatcherParallelism::kSequential);
  EXPECT_TRUE(good.recommend);
  EXPECT_GT(good.spat, 4.0);
}

TEST(BranchStats, GeometricTripEstimate) {
  const BranchStats b{10, 990};
  EXPECT_DOUBLE_EQ(b.exit_probability(), 0.01);
  EXPECT_DOUBLE_EQ(estimate_trip(b), 100.0);
}

TEST(BranchStats, NeverTakenMeansInfiniteEstimate) {
  const BranchStats b{0, 500};
  EXPECT_TRUE(std::isinf(estimate_trip(b)));
}

TEST(BranchStats, EmptyStats) {
  const BranchStats b{0, 0};
  EXPECT_DOUBLE_EQ(b.exit_probability(), 0.0);
}

TEST(ObservedOverheads, BuildsProfileFromMeasuredMarks) {
  const OverheadProfile o =
      observed_overheads(/*marks_per_iteration=*/2.5, /*expected_trip=*/1000,
                         /*pd_test=*/true, /*needs_undo=*/false, 1.5);
  EXPECT_EQ(o.accesses, 2500);
  EXPECT_DOUBLE_EQ(o.access_cost, 1.5);
  EXPECT_TRUE(o.pd_test);
  EXPECT_FALSE(o.needs_undo);
  // Degenerate inputs clamp to zero instead of going negative.
  EXPECT_EQ(observed_overheads(-1.0, 1000, true, true).accesses, 0);
  EXPECT_EQ(observed_overheads(2.0, -5, true, true).accesses, 0);
}

}  // namespace
}  // namespace wlp
