#include <gtest/gtest.h>

#include <limits>

#include "wlp/sched/reduce.hpp"

namespace wlp {
namespace {

TEST(Reduce, SumMatchesClosedForm) {
  ThreadPool pool(4);
  const long n = 10000;
  const long s = parallel_sum<long>(pool, 0, n, [](long i) { return i; });
  EXPECT_EQ(s, n * (n - 1) / 2);
}

TEST(Reduce, MinFindsPlantedValue) {
  ThreadPool pool(4);
  const long m = parallel_min<long>(pool, 0, 5000, std::numeric_limits<long>::max(),
                                    [](long i) { return i == 3127 ? -5L : i; });
  EXPECT_EQ(m, -5);
}

TEST(Reduce, EmptyRangeReturnsIdentity) {
  ThreadPool pool(4);
  EXPECT_EQ(parallel_sum<long>(pool, 10, 10, [](long) { return 1L; }), 0);
  EXPECT_EQ(parallel_min<long>(pool, 5, 5, 77L, [](long i) { return i; }), 77);
}

TEST(Reduce, RangeSmallerThanPool) {
  ThreadPool pool(8);
  EXPECT_EQ(parallel_sum<long>(pool, 0, 3, [](long i) { return i + 1; }), 6);
}

TEST(Reduce, CustomAssociativeOp) {
  ThreadPool pool(4);
  // gcd-reduce
  auto gcd = [](long a, long b) {
    while (b) {
      const long t = a % b;
      a = b;
      b = t;
    }
    return a;
  };
  const long g = parallel_reduce<long>(pool, 1, 100, 0,
                                       [](long i) { return i * 6; }, gcd);
  EXPECT_EQ(g, 6);
}

}  // namespace
}  // namespace wlp
