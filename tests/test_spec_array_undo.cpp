#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "wlp/core/speculative.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {
namespace {

// The undo half of SpecArray (Section 4), with the PD test off
// (run_pd_test = false): checkpoint, per-worker write logs, undo and full
// restore.  The array's only checkpoint/undo/restore path is its fused-pass
// hooks (a SpecRound runs them as parallel passes over all its targets).
// These helpers run them over the whole array on the calling thread.
template <class T, std::size_t K>
void checkpoint(SpecArray<T, K>& a) {
  a.txn_checkpoint_begin();
  a.txn_checkpoint_span(0, a.txn_dense_size());
}

template <class T, std::size_t K>
long undo_beyond(SpecArray<T, K>& a, long trip) {
  return a.txn_undo(trip, 0, a.txn_dense_size());
}

/// A full restore, then the spent logs dropped.
template <class T, std::size_t K>
void restore_all(SpecArray<T, K>& a) {
  a.txn_restore_all_span(0, a.txn_dense_size());
  a.txn_restore_all_done();
}

/// The undo as the round runs it: one index-stripe walk per worker, in
/// parallel.
template <class T, std::size_t K>
long undo_in_stripes(SpecArray<T, K>& a, long trip, ThreadPool& pool) {
  const std::size_t n = a.txn_dense_size(), k = pool.size();
  std::vector<long> part(k, 0);
  doall(pool, 0, static_cast<long>(k), [&](long s, unsigned) {
    const auto u = static_cast<std::size_t>(s);
    part[u] = a.txn_undo(trip, n * u / k, n * (u + 1) / k);
  });
  long undone = 0;
  for (const long x : part) undone += x;
  return undone;
}

TEST(SpecArrayUndo, UndoRestoresExactlyOvershotWrites) {
  SpecArray<int> a(std::vector<int>(10, 0), 1, false);
  checkpoint(a);
  a.set(0, 1, 2, 100);  // valid (trip will be 5)
  a.set(0, 4, 3, 200);  // valid
  a.set(0, 5, 4, 300);  // overshot
  a.set(0, 9, 5, 400);  // overshot
  const long undone = undo_beyond(a, 5);
  EXPECT_EQ(undone, 2);
  EXPECT_EQ(a.data()[2], 100);
  EXPECT_EQ(a.data()[3], 200);
  EXPECT_EQ(a.data()[4], 0);
  EXPECT_EQ(a.data()[5], 0);
}

TEST(SpecArrayUndo, ParallelUndoMatchesSequential) {
  ThreadPool pool(4);
  const long n = 10000, trip = 6000;
  SpecArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1),
                    pool.size(), false);
  checkpoint(a);
  doall(pool, 0, n, [&](long i, unsigned vpn) {
    a.set(vpn, i, static_cast<std::size_t>(i), i * 10);
  });
  const long undone = undo_in_stripes(a, trip, pool);
  EXPECT_EQ(undone, n - trip);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.data()[static_cast<std::size_t>(i)], i < trip ? i * 10 : -1)
        << i;
}

TEST(SpecArrayUndo, RestoreAllAfterFailedSpeculation) {
  SpecArray<double> a(std::vector<double>{1.0, 2.0, 3.0}, 1, false);
  checkpoint(a);
  a.set(0, 0, 0, 9.0);
  a.set(0, 1, 1, 9.0);
  a.data()[2] = 9.0;  // below a stamping threshold: never logged
  restore_all(a);
  EXPECT_EQ(a.data()[0], 1.0);
  EXPECT_EQ(a.data()[1], 2.0);
  EXPECT_EQ(a.data()[2], 3.0);  // the full copy takes unlogged writes back too
  // Logs cleared: nothing left to undo.
  EXPECT_EQ(undo_beyond(a, 0), 0);
}

TEST(SpecArrayUndo, StampKeepsMaximumWriter) {
  // A location's effective stamp is its largest writer iteration across
  // every worker's log: a lower iteration writing later on another worker
  // (a parallel interleaving) does not save it from the undo.
  SpecArray<int> a(std::vector<int>(4, 0), 2, false);
  checkpoint(a);
  a.set(1, 7, 1, 70);
  a.set(0, 3, 1, 30);
  // Undo at trip 5: writer 7 >= 5 -> restored to the checkpoint value.
  EXPECT_EQ(undo_beyond(a, 5), 1);
  EXPECT_EQ(a.data()[1], 0);
}

TEST(SpecArrayUndo, DataWritesBypassTheLog) {
  SpecArray<int> a(std::vector<int>(3, 5), 1, false);
  checkpoint(a);
  a.data()[0] = 9;
  EXPECT_EQ(a.logged_writes(), 0u);
  EXPECT_EQ(undo_beyond(a, 0), 0);  // raw writes are never undone
  EXPECT_EQ(a.data()[0], 9);
}

TEST(SpecArrayUndo, UndoWithNoWritesIsNoop) {
  SpecArray<int> a(std::vector<int>(100, 1), 1, false);
  checkpoint(a);
  EXPECT_EQ(undo_beyond(a, 0), 0);
}

TEST(SpecArrayUndo, DataEscapeHatchAliasesStorage) {
  SpecArray<int> a(std::vector<int>{1, 2, 3}, 1, false);
  a.data()[1] = 42;
  EXPECT_EQ(a.get(0, 1), 42);  // the body-side read sees the raw store
}

TEST(SpecArrayUndo, EntriesKeepThe32BitIterationLimit) {
  static_assert(SpecArray<int>::kMaxIter == 0xfffffffeL);
  static_assert(SpecArray<int>::kMaxIndex == 0xfffffffeu);
  SpecArray<int> a(std::vector<int>(8, 0), 1, false);
  checkpoint(a);
  a.set(0, 5, 2, 1);
  a.set(0, SpecArray<int>::kMaxIter, 3, 1);
  // The largest iteration survives the round trip through 32 bits.
  EXPECT_EQ(undo_beyond(a, SpecArray<int>::kMaxIter + 1), 0);
  EXPECT_EQ(a.data()[3], 1);
  EXPECT_EQ(undo_beyond(a, SpecArray<int>::kMaxIter), 1);
  EXPECT_EQ(a.data()[3], 0);
  EXPECT_EQ(a.data()[2], 1);
}

// ---- per-worker logs: element copies, segments, concurrency ----------------

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

TEST(SpecArrayUndo, NonTriviallyCopyableTakesElementCopyPath) {
  const long n = 200;
  SpecArray<Tracked> a(std::vector<Tracked>(static_cast<std::size_t>(n)), 1,
                       false);
  for (long i = 0; i < n; ++i) a.data()[static_cast<std::size_t>(i)].v = i;

  Tracked::copies = 0;
  checkpoint(a);
  // A memcpy checkpoint could not have bumped the counter: exactly one
  // element copy per location proves the element path ran.
  EXPECT_EQ(Tracked::copies, n);

  for (long i = 0; i < n; ++i)
    a.set(0, i, static_cast<std::size_t>(i), Tracked(i + 1000));
  Tracked::copies = 0;
  EXPECT_EQ(undo_beyond(a, 120), n - 120);
  EXPECT_EQ(Tracked::copies, n - 120);  // one copy per restored element
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.data()[static_cast<std::size_t>(i)].v, i < 120 ? i + 1000 : i)
        << i;

  restore_all(a);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.data()[static_cast<std::size_t>(i)].v, i) << i;
}

TEST(SpecArrayUndo, ConcurrentAppendsUndoOvershotCollision) {
  // Every worker appends to its own log while the others do; two overshot
  // iterations on different workers write ONE index (a pattern the
  // trip-filtered PD test accepts, since both are past the trip).  That
  // index then sits in two logs, and only the undo stripe that holds it
  // restores it, from one thread.  (Run under TSan in CI via the
  // SpecArrayUndo* filter; the handshake orders the two data stores.)
  ThreadPool pool(4);
  const long n = 1 << 14, trip = 9000;
  const long late = n - 6, later = n - 1;  // workers 2 and 3: i mod 4
  SpecArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1),
                    pool.size(), false);
  checkpoint(a);
  std::atomic<bool> late_done{false};
  // A fixed owner per iteration: worker vpn runs i = vpn, vpn + p, ...
  pool.parallel([&](unsigned vpn) {
    for (long i = vpn; i < n; i += pool.size()) {
      auto idx = static_cast<std::size_t>(i);
      if (i == later) {
        while (!late_done.load(std::memory_order_acquire)) std::this_thread::yield();
        idx = static_cast<std::size_t>(late);
      }
      a.set(vpn, i, idx, i * 3);
      if (i == late) late_done.store(true, std::memory_order_release);
    }
  });
  EXPECT_EQ(a.logged_writes(), static_cast<std::size_t>(n));
  // Test-local oracle: one entry per write by an iteration >= trip.
  EXPECT_EQ(undo_in_stripes(a, trip, pool), n - trip);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(a.data()[static_cast<std::size_t>(i)], i < trip ? i * 3 : -1)
        << i;
}

TEST(SpecArrayUndo, ResetMarksKeepsSegmentsForWarmRetries) {
  const long n = 4096;
  SpecArray<int> a(std::vector<int>(static_cast<std::size_t>(n), 0), 1, false);
  for (int round = 0; round < 100; ++round) {
    checkpoint(a);
    a.set(0, 7, 100, round);
    a.set(0, 9, 2100, round);
    ASSERT_EQ(undo_beyond(a, 8), 1) << round;
    ASSERT_EQ(a.data()[2100], 0) << round;
    ASSERT_EQ(a.data()[100], round) << round;
    a.data()[100] = 0;  // reset for the next round
    a.reset_marks();
    ASSERT_EQ(a.logged_writes(), 0u);
  }
  const UndoStats s = a.undo_stats();
  EXPECT_EQ(s.resets, 100);
  EXPECT_EQ(s.checkpoints, 100);
  EXPECT_EQ(s.segments, 1);  // one segment, allocated once and reused
}

TEST(SpecArrayUndo, SegmentsAreSizedByTheArrayAndChain) {
  // A small array gets segments no larger than itself; writes past one
  // segment chain into the next, and the tail walk crosses the boundary.
  const std::size_t n = 16;
  SpecArray<int> a(std::vector<int>(n, 0), 1, false);
  checkpoint(a);
  for (long i = 0; i < 40; ++i)
    a.set(0, i, static_cast<std::size_t>(i) % n, static_cast<int>(i + 1));
  EXPECT_EQ(a.undo_stats().segments, 3);  // 40 entries in segments of 16
  EXPECT_EQ(a.logged_writes(), 40u);
  // Iterations 30..39 span the last two segments and wrote indices 14, 15
  // and 0..7; indices 8..13 keep their last write, by iteration i + 16.
  EXPECT_EQ(undo_beyond(a, 30), 10);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(a.data()[i], i >= 8 && i <= 13 ? static_cast<int>(i + 17) : 0)
        << i;
}

TEST(SpecArrayUndo, MemoryBytesCountsDataBackupAndLog) {
  using SA = SpecArray<long>;
  const std::size_t n = 3 * SA::kSegmentEntries + 5;
  const unsigned workers = 2;
  SA a(std::vector<long>(n, 0), workers, false);
  const std::size_t before = a.memory_bytes();
  EXPECT_EQ(before, n * sizeof(long));  // data only: no backup, no log yet
  checkpoint(a);
  const std::size_t with_backup = a.memory_bytes();
  EXPECT_EQ(with_backup, before + n * sizeof(long));  // + backup
  // Each element written once, split across two workers: 12 291 and 12 290
  // entries, two segments each.  Opened segments count whole, which stays
  // within the 8-byte stamp per element the log replaced plus one partly
  // filled segment per worker.
  const std::size_t seg_bytes = SA::kSegmentEntries * sizeof(std::uint64_t);
  for (std::size_t i = 0; i < n; ++i)
    a.set(static_cast<unsigned>(i % 2), static_cast<long>(i), i, 1);
  EXPECT_EQ(a.memory_bytes(), with_backup + 4 * seg_bytes);
  EXPECT_LE(a.memory_bytes(),
            with_backup + n * sizeof(std::uint64_t) + workers * seg_bytes);
  EXPECT_EQ(a.logged_writes(), n);
  // discard keeps the pooled buffer: the footprint (and therefore the
  // window controller's charge) does not shrink.
  a.discard();
  EXPECT_EQ(a.memory_bytes(), with_backup + 4 * seg_bytes);
  a.reset_marks();
  EXPECT_EQ(a.memory_bytes(), with_backup);
  EXPECT_EQ(a.undo_stats().segments, 4);  // kept for the next retry
}

TEST(SpecArrayUndo, FusedUndoMatchesPerElementReference) {
  // The tail walk must agree with a per-element oracle on a scattered
  // pseudo-random write pattern spread over several workers' logs: every
  // location some iteration >= trip wrote goes back to its known pre-loop
  // value, and the count is one per such write.
  const std::size_t n = 1 << 14;
  const long trip = 1000;
  const unsigned workers = 3;
  SpecArray<long> fused(std::vector<long>(n, -7), workers, false);
  std::vector<long> ref(n, -7);
  std::vector<long> max_writer(n, -1);
  checkpoint(fused);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (long iter = 0; iter < 2000; ++iter) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto idx = static_cast<std::size_t>(x % n);
    // Cyclic assignment: each worker's iterations arrive in increasing order.
    fused.set(static_cast<unsigned>(iter % workers), iter, idx, iter);
    ref[idx] = iter;
    max_writer[idx] = std::max(max_writer[idx], iter);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (max_writer[i] >= trip) ref[i] = -7;
  // One entry per write: iterations trip..1999 wrote once each.
  EXPECT_EQ(undo_beyond(fused, trip), 2000 - trip);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(fused.data()[i], ref[i]) << i;
}

// ---- lanes: K arrays under one subscript share one log ---------------------

using TwoLanes = SpecArray<double, 2>;

/// Two lanes of n elements, lane 0 all `a` and lane 1 all `b`.
std::array<std::vector<double>, 2> lanes(std::size_t n, double a, double b) {
  return {std::vector<double>(n, a), std::vector<double>(n, b)};
}

TEST(SpecArrayUndo, TwoLaneOvershotCollisionRestoresBothLanes) {
  // ConcurrentAppendsUndoOvershotCollision with two lanes: one set stores
  // both lanes and appends one entry, so the colliding index sits in two
  // logs once each, and the stripe that holds it restores both lanes.
  ThreadPool pool(4);
  const long n = 1 << 14, trip = 9000;
  const long late = n - 6, later = n - 1;  // workers 2 and 3: i mod 4
  TwoLanes a(lanes(static_cast<std::size_t>(n), -1.0, -2.0), pool.size(),
             false);
  checkpoint(a);
  std::atomic<bool> late_done{false};
  pool.parallel([&](unsigned vpn) {
    for (long i = vpn; i < n; i += pool.size()) {
      auto idx = static_cast<std::size_t>(i);
      if (i == later) {
        while (!late_done.load(std::memory_order_acquire)) std::this_thread::yield();
        idx = static_cast<std::size_t>(late);
      }
      a.set(vpn, i, idx, static_cast<double>(i), static_cast<double>(-i));
      if (i == late) late_done.store(true, std::memory_order_release);
    }
  });
  EXPECT_EQ(a.logged_writes(), static_cast<std::size_t>(n));
  // Two element writes per entry at or past the trip.
  EXPECT_EQ(undo_in_stripes(a, trip, pool), 2 * (n - trip));
  for (long i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(a.data(0)[idx], i < trip ? static_cast<double>(i) : -1.0) << i;
    ASSERT_EQ(a.data(1)[idx], i < trip ? static_cast<double>(-i) : -2.0) << i;
  }
}

TEST(SpecArrayUndo, TwoLaneRestoreAllRestoresBothLanes) {
  TwoLanes a({std::vector<double>{1.0, 2.0, 3.0},
              std::vector<double>{4.0, 5.0, 6.0}},
             1, false);
  checkpoint(a);
  a.set(0, 0, 0, 9.0, 9.5);
  a.set(0, 1, 1, 9.0, 9.5);
  a.data(1)[2] = 9.5;  // unlogged: only the full copy takes it back
  restore_all(a);
  EXPECT_EQ(a.data(0), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(a.data(1), (std::vector<double>{4.0, 5.0, 6.0}));
  EXPECT_EQ(a.logged_writes(), 0u);
  EXPECT_EQ(undo_beyond(a, 0), 0);
}

TEST(SpecArrayUndo, TwoLaneLogsOneEntryPerSet) {
  TwoLanes a(lanes(64, 0.0, 0.0), 2, false);
  checkpoint(a);
  for (long i = 0; i < 10; ++i)
    a.set(static_cast<unsigned>(i % 2), i, static_cast<std::size_t>(i),
            1.0, 2.0);
  EXPECT_EQ(a.logged_writes(), 10u);  // one entry per set, not per lane
  EXPECT_EQ(undo_beyond(a, 6), 2 * 4);  // iterations 6..9, two lanes each
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.data(0)[i], i < 6 ? 1.0 : 0.0) << i;
    EXPECT_EQ(a.data(1)[i], i < 6 ? 2.0 : 0.0) << i;
  }
}

TEST(SpecArrayUndo, TwoLaneMemoryBytesCountsOneLog) {
  const std::size_t n = 3 * TwoLanes::kSegmentEntries + 5;
  TwoLanes a(lanes(n, 0.0, 0.0), 2, false);
  const std::size_t data = 2 * n * sizeof(double);
  EXPECT_EQ(a.memory_bytes(), data);  // both lanes, no backup, no log yet
  checkpoint(a);
  EXPECT_EQ(a.memory_bytes(), 2 * data);  // + both lanes' backups
  // Every index set once, split across two workers: 12 291 and 12 290
  // entries, two segments each — the segments of ONE log, not two.
  const std::size_t seg_bytes = TwoLanes::kSegmentEntries * sizeof(IterEntry);
  for (std::size_t i = 0; i < n; ++i)
    a.set(static_cast<unsigned>(i % 2), static_cast<long>(i), i, 1.0, 2.0);
  EXPECT_EQ(a.memory_bytes(), 2 * data + 4 * seg_bytes);
  EXPECT_EQ(a.undo_stats().segments, 4);
}

TEST(SpecArrayUndo, LanesOfDifferentSizesThrow) {
  EXPECT_THROW(
      TwoLanes({std::vector<double>(8), std::vector<double>(7)}, 1, false),
               std::invalid_argument);
  EXPECT_NO_THROW(TwoLanes(lanes(8, 0.0, 0.0), 1, false));
}

}  // namespace
}  // namespace wlp
