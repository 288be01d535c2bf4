#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>
#include <vector>

#include "wlp/core/versioned_array.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {
namespace {

TEST(VersionedArray, UndoRestoresExactlyOvershotWrites) {
  VersionedArray<int> a(std::vector<int>(10, 0));
  a.checkpoint();
  a.write(1, 2, 100);  // valid (trip will be 5)
  a.write(4, 3, 200);  // valid
  a.write(5, 4, 300);  // overshot
  a.write(9, 5, 400);  // overshot
  const long undone = a.undo_beyond(5);
  EXPECT_EQ(undone, 2);
  EXPECT_EQ(a.get(2), 100);
  EXPECT_EQ(a.get(3), 200);
  EXPECT_EQ(a.get(4), 0);
  EXPECT_EQ(a.get(5), 0);
}

TEST(VersionedArray, ParallelUndoMatchesSequential) {
  ThreadPool pool(4);
  const long n = 10000, trip = 6000;
  VersionedArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1));
  a.checkpoint();
  doall(pool, 0, n, [&](long i, unsigned) {
    a.write(i, static_cast<std::size_t>(i), i * 10);
  });
  const long undone = a.undo_beyond(trip, &pool);
  EXPECT_EQ(undone, n - trip);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)), i < trip ? i * 10 : -1) << i;
}

TEST(VersionedArray, RestoreAllAfterFailedSpeculation) {
  VersionedArray<double> a(std::vector<double>{1.0, 2.0, 3.0});
  a.checkpoint();
  a.write(0, 0, 9.0);
  a.write(1, 1, 9.0);
  a.restore_all();
  EXPECT_EQ(a.get(0), 1.0);
  EXPECT_EQ(a.get(1), 2.0);
  EXPECT_EQ(a.get(2), 3.0);
  // Stamps cleared: nothing left to undo.
  EXPECT_EQ(a.undo_beyond(0), 0);
}

TEST(VersionedArray, StampKeepsMaximumWriter) {
  VersionedArray<int> a(std::vector<int>(4, 0));
  a.checkpoint();
  a.write(7, 1, 70);
  a.write(3, 1, 30);  // lower iteration writes later (parallel interleaving)
  EXPECT_EQ(a.stamp(1), 7);
  // Undo at trip 5: stamp 7 >= 5 -> restored to checkpoint value.
  EXPECT_EQ(a.undo_beyond(5), 1);
  EXPECT_EQ(a.get(1), 0);
}

TEST(VersionedArray, WriteRawBypassesStamps) {
  VersionedArray<int> a(std::vector<int>(3, 5));
  a.checkpoint();
  a.write_raw(0, 9);
  EXPECT_EQ(a.stamp(0), VersionedArray<int>::kNoStamp);
  EXPECT_EQ(a.undo_beyond(0), 0);  // raw writes are never undone
  EXPECT_EQ(a.get(0), 9);
}

TEST(VersionedArray, UndoWithNoWritesIsNoop) {
  VersionedArray<int> a(std::vector<int>(100, 1));
  a.checkpoint();
  EXPECT_EQ(a.undo_beyond(0), 0);
}

TEST(VersionedArray, DataEscapeHatchAliasesStorage) {
  VersionedArray<int> a(std::vector<int>{1, 2, 3});
  a.data()[1] = 42;
  EXPECT_EQ(a.get(1), 42);
}

// ---- block-batched layer: dirty summary, Writer views, epochs --------------

/// Copy-counting element: NOT trivially copyable, so the memcpy fast paths
/// of checkpoint/undo must never be taken for it — every transfer goes
/// through operator= and bumps the counter.
struct Tracked {
  long v = 0;
  inline static long copies = 0;
  Tracked() = default;
  explicit Tracked(long x) : v(x) {}
  Tracked(const Tracked& o) : v(o.v) { ++copies; }
  Tracked& operator=(const Tracked& o) {
    v = o.v;
    ++copies;
    return *this;
  }
};
static_assert(!std::is_trivially_copyable_v<Tracked>);

TEST(VersionedArray, NonTriviallyCopyableTakesElementCopyPath) {
  const long n = 200;
  VersionedArray<Tracked> a(std::vector<Tracked>(static_cast<std::size_t>(n)));
  for (long i = 0; i < n; ++i) a.data()[static_cast<std::size_t>(i)].v = i;

  Tracked::copies = 0;
  a.checkpoint();
  // A memcpy checkpoint could not have bumped the counter: exactly one
  // element copy per location proves the element path ran.
  EXPECT_EQ(Tracked::copies, n);

  for (long i = 0; i < n; ++i)
    a.write(i, static_cast<std::size_t>(i), Tracked(i + 1000));
  Tracked::copies = 0;
  EXPECT_EQ(a.undo_beyond(120), n - 120);
  EXPECT_EQ(Tracked::copies, n - 120);  // one copy per restored element
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)).v, i < 120 ? i + 1000 : i) << i;

  a.restore_all();
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)).v, i) << i;
}

TEST(VersionedArray, ConcurrentWritersShareBlocksAndSummaryWords) {
  // Distinct elements, shared 64-element blocks and shared 2048-element
  // summary words: the stamp CAS-max and the dirty-word fetch_or/CAS-rebase
  // race exactly as they do in a real speculative DOALL.  (Run under TSan
  // in CI via the VersionedArray* filter.)
  ThreadPool pool(4);
  const long n = 1 << 14, trip = 9000;
  VersionedArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1));
  a.checkpoint(&pool);
  DoallOptions opts;
  opts.sched = Sched::kDynamic;
  opts.chunk = 1;  // interleave writers across blocks as finely as possible
  doall(pool, 0, n, [&](long i, unsigned) {
    a.write(i, static_cast<std::size_t>(i), i * 3);
  }, opts);
  EXPECT_EQ(a.undo_beyond(trip, &pool), n - trip);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(a.get(static_cast<std::size_t>(i)), i < trip ? i * 3 : -1) << i;
}

TEST(VersionedArray, ClearStampsIsEpochBumpNotSweep) {
  const long n = 4096;
  VersionedArray<int> a(std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int round = 0; round < 100; ++round) {
    a.checkpoint();
    a.write(7, 100, round);
    a.write(9, 2100, round);  // second summary word
    ASSERT_EQ(a.undo_beyond(8), 1) << round;
    ASSERT_EQ(a.get(2100), 0) << round;
    ASSERT_EQ(a.get(100), round) << round;
    a.data()[100] = 0;  // reset for the next round
    a.clear_stamps();
    ASSERT_EQ(a.stamp(100), VersionedArray<int>::kNoStamp);
  }
  const UndoStats s = a.stats();
  EXPECT_EQ(s.resets, 100);
  EXPECT_EQ(s.sweeps, 0);  // every reset was the O(1) epoch bump
  EXPECT_EQ(s.checkpoints, 100);
}

TEST(VersionedArray, EpochWrapSweepKeepsUndoExact) {
  VersionedArray<int> a(std::vector<int>(256, 0));
  a.set_epoch_for_test(0xffffffffu);  // hook performs one sweep itself
  a.checkpoint();
  a.write(5, 10, 99);
  EXPECT_EQ(a.stamp(10), 5);
  a.clear_stamps();  // epoch wraps to 0: the once-per-2^32 sweep fires
  EXPECT_EQ(a.stats().sweeps, 2);
  EXPECT_EQ(a.stamp(10), VersionedArray<int>::kNoStamp);
  // The post-wrap epoch must not resurrect pre-wrap stamps or dirty bits.
  EXPECT_EQ(a.undo_beyond(0), 0);
  a.write(3, 10, 7);
  a.write(9, 11, 8);
  EXPECT_EQ(a.undo_beyond(5), 1);
  EXPECT_EQ(a.get(10), 7);
  EXPECT_EQ(a.get(11), 0);
}

TEST(VersionedArray, WriterViewUndoesExactlyAndRebinds) {
  const long n = 512;
  VersionedArray<int> a(std::vector<int>(static_cast<std::size_t>(n), 0));
  a.checkpoint();
  auto w = a.writer();
  // A run of in-block writes: the cached last-block skips the summary-word
  // publication after the first write of each block.
  for (long i = 0; i < 256; ++i)
    w.write(i, static_cast<std::size_t>(i), 1);
  EXPECT_EQ(a.undo_beyond(200), 56);
  for (long i = 0; i < 256; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)), i < 200 ? 1 : 0) << i;

  // After a reset the cached block belongs to the dead epoch; rebind() makes
  // the next write publish its dirty bit again.
  a.restore_all();
  w.rebind();
  a.checkpoint();
  for (long i = 0; i < 256; ++i)
    w.write(i, static_cast<std::size_t>(i), 2);
  EXPECT_EQ(a.undo_beyond(100), 156);
  for (long i = 0; i < 256; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)), i < 100 ? 2 : 0) << i;
}

TEST(VersionedArray, MemoryBytesCountsAllFourComponents) {
  const std::size_t n = 1000;
  VersionedArray<long> a(std::vector<long>(n, 0));
  const std::size_t before = a.memory_bytes();
  // Data + stamps + dirty summary exist up front.
  EXPECT_GE(before, n * sizeof(long) + n * sizeof(std::uint64_t));
  a.checkpoint();
  const std::size_t with_backup = a.memory_bytes();
  EXPECT_GE(with_backup, before + n * sizeof(long));  // + backup
  // discard keeps the pooled buffer: the footprint (and therefore the
  // window controller's charge) does not shrink.
  a.discard_checkpoint();
  EXPECT_EQ(a.memory_bytes(), with_backup);
  EXPECT_FALSE(a.has_checkpoint());
}

TEST(VersionedArray, UndoStatsCountDirtyBlocksAndCoalescedRuns) {
  // A payload over two machine words takes the copy-dominated undo path,
  // where contiguous overshot runs are batched into single copies.
  struct Wide {
    double a, b, c, d;
  };
  static_assert(VersionedArray<Wide>::kCoalesceRuns);
  const long n = 4096;
  VersionedArray<Wide> a(std::vector<Wide>(static_cast<std::size_t>(n)));
  a.checkpoint();
  // One fully-dirty block (64 contiguous overshot stamps = 1 run) plus one
  // isolated overshot element in a distant block (1 more run).
  for (long i = 128; i < 192; ++i)
    a.write(50, static_cast<std::size_t>(i), {1, 1, 1, 1});
  a.write(60, 3000, {2, 2, 2, 2});
  EXPECT_EQ(a.undo_beyond(0), 65);
  const UndoStats s = a.stats();
  EXPECT_EQ(s.blocks_dirty, 2);
  EXPECT_EQ(s.runs_coalesced, 2);  // 64 contiguous restores = one memcpy
  EXPECT_EQ(a.get(128).a, 0.0);
  EXPECT_EQ(a.get(3000).a, 0.0);
}

TEST(VersionedArray, SmallPayloadUndoRestoresInlineDuringScan) {
  // Word-sized payloads take the scan-dominated path: the restore happens
  // inline during the single-branch stamp scan, so no runs are batched —
  // but dirty blocks are still counted and the undo is exact.
  static_assert(!VersionedArray<int>::kCoalesceRuns);
  const long n = 4096;
  VersionedArray<int> a(std::vector<int>(static_cast<std::size_t>(n), 0));
  a.checkpoint();
  for (long i = 128; i < 192; ++i)
    a.write(50, static_cast<std::size_t>(i), 1);
  a.write(60, 3000, 1);
  EXPECT_EQ(a.undo_beyond(0), 65);
  const UndoStats s = a.stats();
  EXPECT_EQ(s.blocks_dirty, 2);
  EXPECT_EQ(s.runs_coalesced, 0);
  EXPECT_EQ(a.get(128), 0);
  EXPECT_EQ(a.get(3000), 0);
}

TEST(VersionedArray, FusedUndoMatchesPerElementReference) {
  // The fused pass (dirty-word skip + adaptive restore) must agree with a
  // per-element oracle on a scattered pseudo-random write pattern: every
  // location stamped by an iteration >= trip goes back to its known
  // pre-loop value.
  const std::size_t n = 1 << 14;
  const long trip = 1000;
  VersionedArray<long> fused(std::vector<long>(n, -7));
  VersionedArray<long> ref(std::vector<long>(n, -7));
  fused.checkpoint();
  auto wf = fused.writer();
  auto wr = ref.writer();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (long iter = 0; iter < 2000; ++iter) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto idx = static_cast<std::size_t>(x % n);
    wf.write(iter, idx, static_cast<long>(iter));
    wr.write(iter, idx, static_cast<long>(iter));
  }
  long ref_undone = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (ref.stamp(i) >= trip) {
      ref.write_raw(i, -7);
      ++ref_undone;
    }
  EXPECT_EQ(fused.undo_beyond(trip), ref_undone);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(fused.get(i), ref.get(i)) << i;
}

}  // namespace
}  // namespace wlp
