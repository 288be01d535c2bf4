#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include "pd_oracle.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {

/// PDMarks, the privatized (per-worker) store every target marks into,
/// behind the PDShadowPolicy surface the oracle (pd_oracle.hpp) has.  A raw
/// mark without a worker goes to the first worker whose iterations it keeps
/// in order; an exposed read goes to a worker that has not started `iter`
/// yet, so no write of it covers the read.
class PDPrivateShadow {
 public:
  explicit PDPrivateShadow(std::size_t n, unsigned workers = 1)
      : marks_(n, std::max(workers, kRouted), /*on=*/true),
        iter_(std::max(workers, kRouted), -1) {}

  void begin_iteration(unsigned vpn, long iter) {
    marks_.begin_iteration(vpn, iter);
    iter_[vpn] = iter;
  }
  void on_read(unsigned vpn, std::size_t idx) { marks_.on_read(vpn, idx); }
  void on_write(unsigned vpn, std::size_t idx) { marks_.on_write(vpn, idx); }
  long marks() const { return marks_.marks(); }

  void mark_write(unsigned vpn, long iter, std::size_t idx) {
    begin_iteration(vpn, iter);
    on_write(vpn, idx);
  }
  void mark_exposed_read(unsigned vpn, long iter, std::size_t idx) {
    begin_iteration(vpn, iter);
    on_read(vpn, idx);
  }
  void mark_write(long iter, std::size_t idx) {
    marks_.on_write(route(iter, /*fresh=*/false), idx);
  }
  void mark_exposed_read(long iter, std::size_t idx) {
    marks_.on_read(route(iter, /*fresh=*/true), idx);
  }

  void reset() {
    marks_.reset();
    std::fill(iter_.begin(), iter_.end(), -1L);
  }

  PDVerdict analyze(ThreadPool& pool, long trip) const {
    return marks_.analyze(pool, trip);
  }
  PDVerdict analyze_seq(long trip) const { return marks_.analyze(one_, trip); }

  long first_writer(std::size_t idx) const { return marks_.iterations_of(idx).w0; }
  long second_writer(std::size_t idx) const { return marks_.iterations_of(idx).w1; }
  long first_exposed_reader(std::size_t idx) const {
    return marks_.iterations_of(idx).r0;
  }
  long second_exposed_reader(std::size_t idx) const {
    return marks_.iterations_of(idx).r1;
  }

 private:
  static constexpr unsigned kRouted = 32;

  unsigned route(long iter, bool fresh) {
    for (unsigned w = 0; w < iter_.size(); ++w)
      if (fresh ? iter_[w] < iter : iter_[w] <= iter) {
        begin_iteration(w, iter);
        return w;
      }
    ADD_FAILURE() << "no worker can take iteration " << iter;
    return 0;
  }

  PDMarks marks_;
  std::vector<long> iter_;
  mutable ThreadPool one_{1};
};

namespace {

constexpr long kBig = 1L << 40;  // trip filter that keeps every mark

// ---- semantics shared by both marking policies ------------------------------
//
// Every test here runs against PDSharedShadow (the dense oracle: atomic
// cells + striped locks, pd_oracle.hpp) and PDPrivateShadow (PDMarks'
// per-worker logs): the verdicts — the PD test's observable behavior —
// must be identical.

/// One worker's view of a store, with PDMarks' body-side calls.
template <class Store>
class Accessor {
 public:
  explicit Accessor(Store& s, unsigned vpn = 0) : s_(&s), vpn_(vpn) {}
  void begin_iteration(long iter) { s_->begin_iteration(vpn_, iter); }
  void on_read(std::size_t idx) { s_->on_read(vpn_, idx); }
  void on_write(std::size_t idx) { s_->on_write(vpn_, idx); }
  long marks() const { return s_->marks(); }
  void reset() { s_->reset(); }

 private:
  Store* s_;
  unsigned vpn_;
};

template <class Store>
class PDShadowPolicy : public ::testing::Test {};

using ShadowPolicies = ::testing::Types<PDSharedShadow, PDPrivateShadow>;
TYPED_TEST_SUITE(PDShadowPolicy, ShadowPolicies);

// --- the paper's Figure 5 loops ---------------------------------------------

TYPED_TEST(PDShadowPolicy, Fig5a_ReadThenWriteSameIterationIsParallel) {
  // do i: A[i] = 2*A[i]  — loop-independent dependence only.
  TypeParam shadow(100);
  Accessor<TypeParam> acc(shadow);
  for (long i = 0; i < 100; ++i) {
    acc.begin_iteration(i);
    acc.on_read(static_cast<std::size_t>(i));   // exposed (read before write)
    acc.on_write(static_cast<std::size_t>(i));
  }
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_EQ(v.conflicts, 0);
  EXPECT_EQ(v.multi_written, 0);
  EXPECT_TRUE(v.fully_parallel());
}

TYPED_TEST(PDShadowPolicy, Fig5b_PrivatizableTemporary) {
  // tmp = A[2i]; A[2i] = A[2i-1]; A[2i-1] = tmp — with tmp as a shared
  // location (slot 0): written then read each iteration -> reads are NOT
  // exposed, but the slot is written by many iterations (output deps).
  TypeParam shadow(1);
  Accessor<TypeParam> acc(shadow);
  for (long i = 0; i < 50; ++i) {
    acc.begin_iteration(i);
    acc.on_write(0);  // tmp = ...
    acc.on_read(0);   // ... = tmp  (covered by the same-iteration write)
  }
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_EQ(v.conflicts, 0);
  EXPECT_EQ(v.multi_written, 1);
  EXPECT_FALSE(v.fully_parallel());
  EXPECT_TRUE(v.parallel_with_privatization());
}

TYPED_TEST(PDShadowPolicy, Fig5c_CrossIterationFlowFails) {
  // A[i] = A[i] + A[i-1]: iteration i exposed-reads A[i-1], written by i-1.
  TypeParam shadow(100);
  Accessor<TypeParam> acc(shadow);
  for (long i = 1; i < 100; ++i) {
    acc.begin_iteration(i);
    acc.on_read(static_cast<std::size_t>(i));
    acc.on_read(static_cast<std::size_t>(i - 1));
    acc.on_write(static_cast<std::size_t>(i));
  }
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_GT(v.conflicts, 0);
  EXPECT_FALSE(v.parallel_with_privatization());
}

// --- overshoot filtering (the WHILE-loop extension) -------------------------

TYPED_TEST(PDShadowPolicy, MarksFromOvershotIterationsAreIgnored) {
  TypeParam shadow(10);
  Accessor<TypeParam> acc(shadow);
  // Valid region (iter < 5): element 0 written once by iteration 2.
  acc.begin_iteration(2);
  acc.on_write(0);
  // Overshoot: iteration 7 exposed-reads and re-writes element 0 — would be
  // both a flow and an output dependence if it counted.
  acc.begin_iteration(7);
  acc.on_read(0);
  acc.on_write(0);

  const PDVerdict full = shadow.analyze_seq(kBig);
  EXPECT_GT(full.conflicts, 0);

  const PDVerdict filtered = shadow.analyze_seq(5);
  EXPECT_EQ(filtered.conflicts, 0);
  EXPECT_EQ(filtered.multi_written, 0);
  EXPECT_EQ(filtered.written_elements, 1);
  EXPECT_TRUE(filtered.fully_parallel());
}

TYPED_TEST(PDShadowPolicy, TwoSmallestWritersSurviveFiltering) {
  TypeParam shadow(1);
  shadow.mark_write(9, 0);
  shadow.mark_write(4, 0);
  shadow.mark_write(6, 0);
  shadow.mark_write(2, 0);
  EXPECT_EQ(shadow.first_writer(0), 2);
  EXPECT_EQ(shadow.second_writer(0), 4);
  // trip = 5: writers {2, 4} -> output dependence among valid iterations.
  EXPECT_EQ(shadow.analyze_seq(5).multi_written, 1);
  // trip = 3: only writer 2 counts.
  EXPECT_EQ(shadow.analyze_seq(3).multi_written, 0);
  EXPECT_EQ(shadow.analyze_seq(3).written_elements, 1);
}

TYPED_TEST(PDShadowPolicy, ConflictNeedsDistinctIterations) {
  TypeParam shadow(1);
  // Writer 3, exposed reader 3 (same iteration), another reader 8 (overshot).
  shadow.mark_write(3, 0);
  shadow.mark_exposed_read(3, 0);
  shadow.mark_exposed_read(8, 0);
  EXPECT_EQ(shadow.analyze_seq(5).conflicts, 0);  // reader 8 filtered
  EXPECT_GT(shadow.analyze_seq(9).conflicts, 0);  // reader 8 counts: 8 != 3
}

TYPED_TEST(PDShadowPolicy, TwoReadersOneWriterConflicts) {
  TypeParam shadow(1);
  shadow.mark_write(3, 0);
  shadow.mark_exposed_read(3, 0);
  shadow.mark_exposed_read(4, 0);
  EXPECT_GT(shadow.analyze_seq(kBig).conflicts, 0);
}

TYPED_TEST(PDShadowPolicy, DuplicateMarksFromOneIterationCollapse) {
  TypeParam shadow(1);
  for (int k = 0; k < 10; ++k) shadow.mark_write(5, 0);
  EXPECT_EQ(shadow.first_writer(0), 5);
  EXPECT_EQ(shadow.second_writer(0), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).multi_written, 0);
}

TYPED_TEST(PDShadowPolicy, ResetClearsEverything) {
  TypeParam shadow(4);
  shadow.mark_write(1, 2);
  shadow.mark_exposed_read(3, 2);
  shadow.reset();
  EXPECT_EQ(shadow.first_writer(2), -1);
  EXPECT_EQ(shadow.first_exposed_reader(2), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).written_elements, 0);
}

TYPED_TEST(PDShadowPolicy, MarksAfterResetStartFresh) {
  TypeParam shadow(2);
  shadow.mark_write(7, 0);
  shadow.mark_exposed_read(9, 1);
  shadow.reset();
  // New marks after the reset must not merge with pre-reset state: the
  // rewound logs must behave exactly like the oracle's O(n) wipe.
  shadow.mark_write(3, 0);
  EXPECT_EQ(shadow.first_writer(0), 3);
  EXPECT_EQ(shadow.second_writer(0), -1);
  EXPECT_EQ(shadow.first_exposed_reader(1), -1);
  const PDVerdict v = shadow.analyze_seq(kBig);
  EXPECT_EQ(v.written_elements, 1);
  EXPECT_EQ(v.exposed_read_elements, 0);
}

TYPED_TEST(PDShadowPolicy, ParallelAnalysisMatchesSequential) {
  ThreadPool pool(4);
  TypeParam shadow(5000, pool.size());
  Xoshiro256 rng(31);
  // Enough marks that PDMarks splits the analysis into index ranges.
  struct Mark {
    long iter;
    std::size_t idx;
    bool write;
  };
  std::vector<Mark> ms;
  for (int k = 0; k < 20000; ++k) {
    const auto idx = static_cast<std::size_t>(rng.below(5000));
    const long iter = static_cast<long>(rng.below(1000));
    ms.push_back({iter, idx, rng.chance(0.5)});
  }
  // Each worker takes its marks in iteration order.
  std::stable_sort(ms.begin(), ms.end(),
                   [](const Mark& a, const Mark& b) { return a.iter < b.iter; });
  for (std::size_t k = 0; k < ms.size(); ++k) {
    const auto vpn = static_cast<unsigned>(k % pool.size());
    shadow.begin_iteration(vpn, ms[k].iter);
    if (ms[k].write)
      shadow.on_write(vpn, ms[k].idx);
    else
      shadow.on_read(vpn, ms[k].idx);
  }
  for (long trip : {0L, 100L, 500L, 1000L}) {
    const PDVerdict s = shadow.analyze_seq(trip);
    const PDVerdict p = shadow.analyze(pool, trip);
    EXPECT_EQ(s.written_elements, p.written_elements);
    EXPECT_EQ(s.multi_written, p.multi_written);
    EXPECT_EQ(s.exposed_read_elements, p.exposed_read_elements);
    EXPECT_EQ(s.conflicts, p.conflicts);
  }
}

TYPED_TEST(PDShadowPolicy, AccessorExposureResetsPerIteration) {
  TypeParam shadow(2);
  Accessor<TypeParam> acc(shadow);
  acc.begin_iteration(0);
  acc.on_write(1);
  acc.on_read(1);  // covered
  acc.begin_iteration(1);
  acc.on_read(1);  // exposed: iteration 1 did not write slot 1 yet
  EXPECT_EQ(shadow.first_exposed_reader(1), 1);
}

TYPED_TEST(PDShadowPolicy, AccessorResetInvalidatesLastWriteTable) {
  // Two runs of the "same loop" against one reused store.  If the reset
  // left the first run's write of slot 0 visible, the second run's read of
  // it at iteration 4 would count as covered — hiding a genuine exposed
  // read.
  TypeParam shadow(1);
  Accessor<TypeParam> acc(shadow);
  acc.begin_iteration(4);
  acc.on_write(0);

  shadow.reset();
  acc.reset();

  acc.begin_iteration(4);
  acc.on_read(0);  // nothing written this run: exposed
  EXPECT_EQ(shadow.first_exposed_reader(0), 4);
}

TYPED_TEST(PDShadowPolicy, AccessorCountsMarks) {
  TypeParam shadow(8);
  Accessor<TypeParam> acc(shadow);
  acc.begin_iteration(0);
  acc.on_write(3);  // mark
  acc.on_read(3);   // covered: no mark
  acc.on_read(4);   // mark
  EXPECT_EQ(acc.marks(), 2);
  acc.reset();
  EXPECT_EQ(acc.marks(), 0);
}

// ---- oracle specifics ---------------------------------------------------------

TEST(PDSharedShadow, ConcurrentMarkingKeepsTwoSmallest) {
  ThreadPool pool(8);
  PDSharedShadow shadow(1);
  doall(pool, 0, 1000, [&](long i, unsigned) { shadow.mark_write(i, 0); });
  EXPECT_EQ(shadow.first_writer(0), 0);
  EXPECT_EQ(shadow.second_writer(0), 1);
}

TEST(PDSharedShadow, MonotoneHiFastPathStaysExact) {
  // In-order marking arms the documented early exit (lo and hi full, iter >
  // hi skips the lock); a later out-of-order smaller iteration must still
  // displace correctly.
  PDSharedShadow shadow(1);
  for (long i = 10; i < 200; ++i) shadow.mark_write(i, 0);  // fast path for i>11
  EXPECT_EQ(shadow.first_writer(0), 10);
  EXPECT_EQ(shadow.second_writer(0), 11);
  shadow.mark_write(3, 0);  // smaller than both: takes the slow path
  EXPECT_EQ(shadow.first_writer(0), 3);
  EXPECT_EQ(shadow.second_writer(0), 10);
  shadow.mark_write(7, 0);  // between the two
  EXPECT_EQ(shadow.first_writer(0), 3);
  EXPECT_EQ(shadow.second_writer(0), 7);
}

// ---- privatized-policy specifics --------------------------------------------

TEST(PDPrivateShadow, MergesMarksAcrossWorkerSegments) {
  PDPrivateShadow shadow(2, /*workers=*/4);
  // The two smallest writers of slot 0 live in DIFFERENT workers' logs.
  shadow.mark_write(0u, 9, 0);
  shadow.mark_write(1u, 4, 0);
  shadow.mark_write(2u, 6, 0);
  shadow.mark_write(3u, 2, 0);
  EXPECT_EQ(shadow.first_writer(0), 2);
  EXPECT_EQ(shadow.second_writer(0), 4);
  // Duplicate iteration from two workers collapses in the merge (workers 1
  // and 3, whose iterations so far are below 5).
  shadow.mark_exposed_read(1u, 5, 1);
  shadow.mark_exposed_read(3u, 5, 1);
  EXPECT_EQ(shadow.first_exposed_reader(1), 5);
  EXPECT_EQ(shadow.second_exposed_reader(1), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).multi_written, 1);
}

TEST(PDPrivateShadow, VerdictMatchesSharedUnderSplitMarking) {
  // The same random mark stream, routed to the shared store and scattered
  // across the privatized store's workers, must yield equal verdicts.
  ThreadPool pool(4);
  const std::size_t n = 512;
  PDSharedShadow shared(n);
  PDPrivateShadow priv(n, 4);
  Xoshiro256 rng(77);
  struct Mark {
    long iter;
    std::size_t idx;
    bool write;
  };
  std::vector<Mark> ms;
  for (int k = 0; k < 5000; ++k) {
    const auto idx = static_cast<std::size_t>(rng.below(n));
    const long iter = static_cast<long>(rng.below(300));
    ms.push_back({iter, idx, rng.chance(0.5)});
  }
  // Workers take their iterations in order.
  std::stable_sort(ms.begin(), ms.end(),
                   [](const Mark& a, const Mark& b) { return a.iter < b.iter; });
  for (const Mark& m : ms) {
    if (m.write) {
      shared.mark_write(m.iter, m.idx);
      priv.mark_write(m.iter, m.idx);
    } else {
      shared.mark_exposed_read(m.iter, m.idx);
      priv.mark_exposed_read(m.iter, m.idx);
    }
  }
  for (long trip : {0L, 50L, 150L, 300L}) {
    const PDVerdict a = shared.analyze(pool, trip);
    const PDVerdict b = priv.analyze(pool, trip);
    EXPECT_EQ(a.written_elements, b.written_elements) << trip;
    EXPECT_EQ(a.multi_written, b.multi_written) << trip;
    EXPECT_EQ(a.exposed_read_elements, b.exposed_read_elements) << trip;
    EXPECT_EQ(a.conflicts, b.conflicts) << trip;
  }
}

TEST(PDPrivateShadow, StaleSegmentFromEarlierEpochIsInvisible) {
  // An epoch here is one round between resets: the rewound logs keep their
  // segments, and nothing the last round appended is visible in this one.
  PDPrivateShadow shadow(4, /*workers=*/2);
  shadow.mark_write(0u, 1, 2);
  shadow.mark_write(1u, 3, 2);
  shadow.reset();
  // Only worker 0 marks this round; worker 1's segment holds last round's.
  shadow.mark_write(0u, 8, 2);
  EXPECT_EQ(shadow.first_writer(2), 8);
  EXPECT_EQ(shadow.second_writer(2), -1);
  EXPECT_EQ(shadow.analyze_seq(kBig).multi_written, 0);
}

TEST(PDPrivateShadow, SparseParallelAnalysisMatchesReference) {
  // Marks far sparser than the array, enough of them for the parallel
  // analysis: both analysis paths against a reference kept per element.
  const std::size_t n = std::size_t{1} << 24;
  ThreadPool pool(4);
  PDPrivateShadow shadow(n, 4);
  Xoshiro256 rng(5);
  struct Mark {
    long iter;
    std::size_t idx;
    bool write;
  };
  std::vector<Mark> ms;
  for (std::size_t k = 0; k < PDMarks::kSequentialMarks + 4000; ++k) {
    // A few hot elements, so some elements carry several marks.
    const auto idx = static_cast<std::size_t>(rng.chance(0.1) ? rng.below(16) : rng.below(n));
    ms.push_back({static_cast<long>(rng.below(2000)), idx, rng.chance(0.5)});
  }
  std::stable_sort(ms.begin(), ms.end(),
                   [](const Mark& a, const Mark& b) { return a.iter < b.iter; });
  for (const Mark& m : ms) {
    if (m.write)
      shadow.mark_write(m.iter, m.idx);
    else
      shadow.mark_exposed_read(m.iter, m.idx);
  }
  for (long trip : {0L, 700L, 2000L}) {
    std::map<std::size_t, std::array<std::set<long>, 2>> seen;
    for (const Mark& m : ms)
      if (m.iter < trip) seen[m.idx][m.write ? 0 : 1].insert(m.iter);
    PDVerdict ref;
    for (const auto& [idx, kinds] : seen) {
      const std::set<long>& w = kinds[0];
      const std::set<long>& r = kinds[1];
      ref.written_elements += w.empty() ? 0 : 1;
      ref.multi_written += w.size() > 1 ? 1 : 0;
      ref.exposed_read_elements += r.empty() ? 0 : 1;
      ref.conflicts += !w.empty() && !r.empty() &&
                               (w.size() > 1 || r.size() > 1 || *w.begin() != *r.begin())
                           ? 1
                           : 0;
    }
    for (const PDVerdict& v : {shadow.analyze(pool, trip), shadow.analyze_seq(trip)}) {
      EXPECT_EQ(v.written_elements, ref.written_elements) << trip;
      EXPECT_EQ(v.multi_written, ref.multi_written) << trip;
      EXPECT_EQ(v.exposed_read_elements, ref.exposed_read_elements) << trip;
      EXPECT_EQ(v.conflicts, ref.conflicts) << trip;
    }
  }
}

/// The same accesses into PDMarks and the oracle, over many random shapes:
/// equal verdicts at every trip and equal mark counts, round after round.
TEST(PDPrivateShadow, MatchesOracleOnRandomAccesses) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Xoshiro256 rng(seed);
    const unsigned workers = 1 + static_cast<unsigned>(rng.below(4));
    // Mostly small arrays; every tenth seed a dense one big enough for the
    // parallel analysis, and every tenth (offset 5) a sparse one, far
    // larger than its marks.
    const std::size_t n = seed % 10 == 0   ? 1 + rng.below(4096)
                          : seed % 10 == 5 ? (std::size_t{1} << 18) + rng.below(1024)
                                           : 1 + rng.below(64);
    // A few "hot" elements take a share of every round's accesses.
    const std::size_t hot = 1 + rng.below(3);
    PDMarks marks(n, workers, /*on=*/true);
    PDSharedShadow oracle(n, workers);
    for (int round = 0; round < 3; ++round) {
      marks.reset();
      oracle.reset();
      // Every tenth seed logs enough to take the parallel analysis path.
      const long per_worker =
          seed % 10 == 0
              ? static_cast<long>(PDMarks::kSequentialMarks / workers) + 64
              : 1 + static_cast<long>(rng.below(200));
      long top = 0;
      for (unsigned w = 0; w < workers; ++w) {
        // Worker w runs iterations w, w + workers, ... (a cyclic schedule),
        // several accesses each, skipping some.
        long step = static_cast<long>(rng.below(8));
        for (long k = 0; k < per_worker; ++k) {
          if (rng.chance(0.3)) step += 1 + static_cast<long>(rng.below(3));
          const long iter = step * workers + w;
          top = std::max(top, iter);
          // Calling begin_iteration again with the same iteration (as
          // each statement of a block might) must not forget coverage.
          marks.begin_iteration(w, iter);
          oracle.begin_iteration(w, iter);
          const std::size_t idx = rng.chance(0.2)
                                      ? rng.below(std::min(hot, n))
                                      : rng.below(n);
          if (rng.chance(0.45)) {
            marks.on_write(w, idx);
            oracle.on_write(w, idx);
          } else {
            marks.on_read(w, idx);
            oracle.on_read(w, idx);
          }
        }
      }
      ASSERT_EQ(marks.marks(), oracle.marks()) << "seed " << seed;
      const long mid = top / 2;
      for (long trip : {0L, 1L, mid, top, top + 1, kBig}) {
        const PDVerdict a = marks.analyze(pool, trip);
        const PDVerdict b = oracle.analyze_seq(trip);
        ASSERT_EQ(a.written_elements, b.written_elements)
            << "seed " << seed << " trip " << trip;
        ASSERT_EQ(a.multi_written, b.multi_written)
            << "seed " << seed << " trip " << trip;
        ASSERT_EQ(a.exposed_read_elements, b.exposed_read_elements)
            << "seed " << seed << " trip " << trip;
        ASSERT_EQ(a.conflicts, b.conflicts) << "seed " << seed << " trip " << trip;
      }
    }
  }
}

}  // namespace
}  // namespace wlp
