// Concurrency stress for the PD stores, written to run under TSan (the CI
// TSan job includes these suites): concurrent marking streams, the parallel
// analysis, and resets interleaved across rounds.  Each round's verdict is
// checked against a sequentially-built oracle, so the tests catch both
// races (TSan) and lost/duplicated marks (the equality checks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "pd_oracle.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {
namespace {

struct Mark {
  bool write;
  long iter;
  std::size_t idx;
};

/// Deterministic per-worker mark stream.  The tail marks ascending
/// iterations into one shared cell, which is exactly what arms the
/// monotone-`hi` fast-path early exit in the oracle's insert once both
/// slots fill — the shared stress must cover that racy two-load shortcut.
std::vector<Mark> stream_for(unsigned vpn, std::size_t n, int round) {
  std::vector<Mark> ms;
  Xoshiro256 rng(1000 * (vpn + 1) + static_cast<unsigned>(round));
  for (int k = 0; k < 2000; ++k) {
    ms.push_back({rng.chance(0.5), static_cast<long>(rng.below(500)),
                  static_cast<std::size_t>(rng.below(n))});
  }
  for (long i = 0; i < 500; ++i) ms.push_back({true, i, 0});
  return ms;
}

/// The same stream in the iteration order one worker runs it.
std::vector<Mark> ordered_stream_for(unsigned vpn, std::size_t n, int round) {
  std::vector<Mark> ms = stream_for(vpn, n, round);
  std::stable_sort(ms.begin(), ms.end(),
                   [](const Mark& a, const Mark& b) { return a.iter < b.iter; });
  return ms;
}

template <class Store>
void feed(Store& s, unsigned vpn, const Mark& m) {
  s.begin_iteration(vpn, m.iter);
  if (m.write)
    s.on_write(vpn, m.idx);
  else
    s.on_read(vpn, m.idx);
}

void expect_equal(const PDVerdict& a, const PDVerdict& b, long trip) {
  EXPECT_EQ(a.written_elements, b.written_elements) << "trip " << trip;
  EXPECT_EQ(a.multi_written, b.multi_written) << "trip " << trip;
  EXPECT_EQ(a.exposed_read_elements, b.exposed_read_elements) << "trip " << trip;
  EXPECT_EQ(a.conflicts, b.conflicts) << "trip " << trip;
}

TEST(PDSharedStress, ConcurrentMarkingAnalysisAndResetRounds) {
  ThreadPool pool(8);
  const std::size_t n = 256;
  PDSharedShadow shadow(n, pool.size());

  for (int round = 0; round < 10; ++round) {
    // All workers mark concurrently into the SAME cells (the shared store
    // allows it), including the ascending same-cell tail that exercises the
    // monotone-hi fast path under contention.
    pool.parallel([&](unsigned vpn) {
      for (const Mark& m : stream_for(vpn, n, round)) {
        if (m.write)
          shadow.mark_write(vpn, m.iter, m.idx);
        else
          shadow.mark_exposed_read(vpn, m.iter, m.idx);
      }
    });

    // Reference: the union of all streams applied single-threaded.
    PDSharedShadow ref(n);
    for (unsigned vpn = 0; vpn < pool.size(); ++vpn)
      for (const Mark& m : stream_for(vpn, n, round)) {
        if (m.write)
          ref.mark_write(m.iter, m.idx);
        else
          ref.mark_exposed_read(m.iter, m.idx);
      }

    for (long trip : {100L, 500L}) {
      expect_equal(shadow.analyze(pool, trip), ref.analyze_seq(trip), trip);
    }
    EXPECT_EQ(shadow.first_writer(0), 0);  // the ascending tail's minimum
    EXPECT_EQ(shadow.second_writer(0), 1);
    shadow.reset();
  }
}

TEST(PDPrivateStress, ConcurrentPerWorkerMarkingAnalysisAndResetRounds) {
  ThreadPool pool(8);
  const std::size_t n = 256;
  PDMarks marks(n, pool.size(), /*on=*/true);

  for (int round = 0; round < 10; ++round) {
    // Each worker appends ONLY to its own logs — the store's contract — so
    // the plain stores are race-free by ownership; TSan verifies that
    // claim, including the lazy segment allocation from the shared arena
    // and the reuse of the rewound segments after a reset.
    pool.parallel([&](unsigned vpn) {
      for (const Mark& m : ordered_stream_for(vpn, n, round)) feed(marks, vpn, m);
    });

    PDSharedShadow ref(n, pool.size());
    for (unsigned vpn = 0; vpn < pool.size(); ++vpn)
      for (const Mark& m : ordered_stream_for(vpn, n, round)) feed(ref, vpn, m);

    ThreadPool one(1);
    for (long trip : {100L, 500L}) {
      expect_equal(marks.analyze(pool, trip), ref.analyze_seq(trip), trip);
      expect_equal(marks.analyze(one, trip), ref.analyze_seq(trip), trip);
    }
    EXPECT_EQ(marks.marks(), ref.marks());
    EXPECT_EQ(marks.iterations_of(0).w0, 0);
    EXPECT_EQ(marks.iterations_of(0).w1, 1);
    marks.reset();  // O(workers) rewind between rounds
  }
}

TEST(PDPrivateStress, ConcurrentMarkingWithAccessorsMatchesReference) {
  // The full per-worker pipeline the speculative drivers run: exposure
  // filtering at the log tail feeding vpn-qualified marks, reused across
  // rounds.
  ThreadPool pool(4);
  const std::size_t n = 128;
  PDMarks marks(n, pool.size(), /*on=*/true);

  for (int round = 0; round < 20; ++round) {
    marks.reset();

    // Worker w owns iterations i with i % p == w (static cyclic).
    pool.parallel([&](unsigned vpn) {
      for (long i = vpn; i < 200; i += static_cast<long>(pool.size())) {
        marks.begin_iteration(vpn, i);
        const auto idx = static_cast<std::size_t>((i * 17 + round) % n);
        marks.on_read(vpn, idx);  // exposed (no earlier write this iteration)
        marks.on_write(vpn, idx);
        marks.on_read(vpn, idx);  // covered
      }
    });

    // Same accesses, single-threaded, against the oracle.
    PDSharedShadow ref(n);
    for (long i = 0; i < 200; ++i) {
      ref.begin_iteration(0, i);
      const auto idx = static_cast<std::size_t>((i * 17 + round) % n);
      ref.on_read(0, idx);
      ref.on_write(0, idx);
      ref.on_read(0, idx);
    }

    expect_equal(marks.analyze(pool, 200), ref.analyze_seq(200), 200);
    EXPECT_EQ(marks.marks(), ref.marks());  // 2 per iteration (1 read + 1 write)
    EXPECT_EQ(marks.marks(), 400);
  }
}

}  // namespace
}  // namespace wlp
