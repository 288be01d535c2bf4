#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "wlp/core/while_assoc.hpp"

namespace wlp {
namespace {

// Reference: while (!term(x)) { body(i, x); x = a*x + b; }
template <class T, class Term>
long sequential_assoc_trip(T x0, AffineMap<T> step, Term&& term, long u,
                           std::vector<T>* seen = nullptr) {
  T x = x0;
  for (long i = 0; i < u; ++i) {
    if (term(x)) return i;
    if (seen) seen->push_back(x);
    x = step(x);
  }
  return u;
}

TEST(WhileAssoc, RITerminatorExactTripAndValues) {
  ThreadPool pool(4);
  const AffineMap<std::uint64_t> step{3, 1};
  // The map is invertible mod 2^64, so the value at step 777 first occurs
  // there: terminate exactly when the dispatcher reaches it.
  std::uint64_t target = 1;
  for (int k = 0; k < 777; ++k) target = step(target);
  auto term = [target](std::uint64_t x) { return x == target; };

  std::vector<std::uint64_t> expected;
  const long seq_trip = sequential_assoc_trip<std::uint64_t>(1, step, term, 100000,
                                                             &expected);
  ASSERT_EQ(seq_trip, 777);

  std::vector<std::atomic<std::uint64_t>> seen(static_cast<std::size_t>(seq_trip));
  const ExecReport r = while_assoc_prefix<std::uint64_t>(
      pool, 1, step, term,
      [&](long i, std::uint64_t x, unsigned) {
        if (i < seq_trip) seen[static_cast<std::size_t>(i)].store(x);
        return IterAction::kContinue;
      },
      100000);
  EXPECT_EQ(r.method, Method::kAssocPrefix);
  EXPECT_EQ(r.trip, seq_trip);
  EXPECT_EQ(r.overshot, 0);  // RI: the exit is found in the precomputed terms
  for (long i = 0; i < seq_trip; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), expected[static_cast<std::size_t>(i)]);
}

class AssocStripSizes : public ::testing::TestWithParam<long> {};

TEST_P(AssocStripSizes, StripMiningPreservesTrip) {
  ThreadPool pool(4);
  const AffineMap<std::uint64_t> step{6364136223846793005ULL, 1442695040888963407ULL};
  auto term = [](std::uint64_t x) { return (x >> 52) == 0xABCULL >> 4; };
  const long seq_trip =
      sequential_assoc_trip<std::uint64_t>(99, step, term, 200000);
  const ExecReport r = while_assoc_prefix<std::uint64_t>(
      pool, 99, step, term,
      [](long, std::uint64_t, unsigned) { return IterAction::kContinue; }, 200000,
      GetParam());
  EXPECT_EQ(r.trip, seq_trip);
}

INSTANTIATE_TEST_SUITE_P(Strips, AssocStripSizes,
                         ::testing::Values(0L, 1L, 7L, 64L, 1024L, 65536L));

TEST(WhileAssoc, RVExitInsideRemainder) {
  ThreadPool pool(4);
  const AffineMap<std::uint64_t> step{3, 7};
  auto never = [](std::uint64_t) { return false; };
  const long exit_at = 4321;
  const ExecReport r = while_assoc_prefix<std::uint64_t>(
      pool, 5, step, never,
      [&](long i, std::uint64_t, unsigned) {
        return i == exit_at ? IterAction::kExitAfter : IterAction::kContinue;
      },
      100000, /*strip=*/2048);
  EXPECT_EQ(r.trip, exit_at + 1);
  // Strip mining bounds the superfluous dispatcher terms to ~3 strips.
  EXPECT_LE(r.dispatcher_steps, 3 * 2048);
}

TEST(WhileAssoc, RVExitStopsIssuingLaterIterations) {
  // One strip over a long range: the QUIT of an early RV exit stops the
  // DOALL from starting the rest (the dispatcher terms are all computed
  // up front, the superfluous-values cost).
  ThreadPool pool(4);
  const long u = 1L << 20;
  const ExecReport r = while_assoc_prefix<std::uint64_t>(
      pool, 1, {3, 1}, [](std::uint64_t) { return false; },
      [](long i, std::uint64_t, unsigned) {
        return i == 1000 ? IterAction::kExit : IterAction::kContinue;
      },
      u);
  EXPECT_EQ(r.trip, 1000);
  EXPECT_EQ(r.dispatcher_steps, u);
  EXPECT_LT(r.started, u / 4);
  EXPECT_EQ(r.overshot, r.started - r.trip);
}

TEST(WhileAssoc, NoExitRunsToBound) {
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  const ExecReport r = while_assoc_prefix<std::uint64_t>(
      pool, 0, {1, 1}, [](std::uint64_t) { return false; },
      [&](long, std::uint64_t, unsigned) {
        runs.fetch_add(1);
        return IterAction::kContinue;
      },
      5000);
  EXPECT_EQ(r.trip, 5000);
  EXPECT_EQ(runs.load(), 5000);
}

TEST(WhileAssoc, TerminatorTrueImmediately) {
  ThreadPool pool(4);
  std::atomic<long> runs{0};
  const ExecReport r = while_assoc_prefix<std::uint64_t>(
      pool, 10, {2, 0}, [](std::uint64_t x) { return x == 10; },
      [&](long, std::uint64_t, unsigned) {
        runs.fetch_add(1);
        return IterAction::kContinue;
      },
      100);
  EXPECT_EQ(r.trip, 0);
  EXPECT_EQ(runs.load(), 0);
}

TEST(WhileAssoc, IdentityStepDegeneratesToConstantDispatcher) {
  ThreadPool pool(4);
  // x stays 5 forever; RV exit at iteration 77 ends it.
  const ExecReport r = while_assoc_prefix<std::uint64_t>(
      pool, 5, AffineMap<std::uint64_t>::identity(),
      [](std::uint64_t) { return false; },
      [](long i, std::uint64_t x, unsigned) {
        EXPECT_EQ(x, 5u);
        return i == 77 ? IterAction::kExit : IterAction::kContinue;
      },
      1000);
  EXPECT_EQ(r.trip, 77);
}

}  // namespace
}  // namespace wlp
