#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "wlp/core/versioned_array.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {
namespace {

// The array's only checkpoint/undo/restore path is its transaction hooks
// (SpecTransaction runs them as fused parallel passes).  These helpers run
// them over the whole array on the calling thread.
template <class T>
void checkpoint(VersionedArray<T>& a) {
  a.txn_checkpoint_span(0, a.txn_checkpoint_begin());
}

template <class T>
long undo_beyond(VersionedArray<T>& a, long trip) {
  return a.txn_undo(trip, 0, a.size());
}

/// A full restore, then the spent logs dropped (txn_restore_all_done).
template <class T>
void restore_all(VersionedArray<T>& a) {
  a.txn_restore_all_span(0, a.size());
  a.clear_log();
}

/// The undo as the transaction runs it: one index-stripe walk per worker,
/// in parallel.
template <class T>
long undo_in_stripes(VersionedArray<T>& a, long trip, ThreadPool& pool) {
  const std::size_t n = a.size(), k = pool.size();
  std::vector<long> part(k, 0);
  doall(pool, 0, static_cast<long>(k), [&](long s, unsigned) {
    const auto u = static_cast<std::size_t>(s);
    part[u] = a.txn_undo(trip, n * u / k, n * (u + 1) / k);
  });
  long undone = 0;
  for (const long x : part) undone += x;
  return undone;
}

TEST(VersionedArray, UndoRestoresExactlyOvershotWrites) {
  VersionedArray<int> a(std::vector<int>(10, 0), 1);
  checkpoint(a);
  a.write(0, 1, 2, 100);  // valid (trip will be 5)
  a.write(0, 4, 3, 200);  // valid
  a.write(0, 5, 4, 300);  // overshot
  a.write(0, 9, 5, 400);  // overshot
  const long undone = undo_beyond(a, 5);
  EXPECT_EQ(undone, 2);
  EXPECT_EQ(a.get(2), 100);
  EXPECT_EQ(a.get(3), 200);
  EXPECT_EQ(a.get(4), 0);
  EXPECT_EQ(a.get(5), 0);
}

TEST(VersionedArray, ParallelUndoMatchesSequential) {
  ThreadPool pool(4);
  const long n = 10000, trip = 6000;
  VersionedArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1),
                         pool.size());
  checkpoint(a);
  doall(pool, 0, n, [&](long i, unsigned vpn) {
    a.write(vpn, i, static_cast<std::size_t>(i), i * 10);
  });
  const long undone = undo_in_stripes(a, trip, pool);
  EXPECT_EQ(undone, n - trip);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)), i < trip ? i * 10 : -1) << i;
}

TEST(VersionedArray, RestoreAllAfterFailedSpeculation) {
  VersionedArray<double> a(std::vector<double>{1.0, 2.0, 3.0}, 1);
  checkpoint(a);
  a.write(0, 0, 0, 9.0);
  a.write(0, 1, 1, 9.0);
  a.write_raw(2, 9.0);  // below a stamping threshold: never logged
  restore_all(a);
  EXPECT_EQ(a.get(0), 1.0);
  EXPECT_EQ(a.get(1), 2.0);
  EXPECT_EQ(a.get(2), 3.0);  // the full copy takes unlogged writes back too
  // Logs cleared: nothing left to undo.
  EXPECT_EQ(undo_beyond(a, 0), 0);
}

TEST(VersionedArray, StampKeepsMaximumWriter) {
  // A location's effective stamp is its largest writer iteration across
  // every worker's log: a lower iteration writing later on another worker
  // (a parallel interleaving) does not save it from the undo.
  VersionedArray<int> a(std::vector<int>(4, 0), 2);
  checkpoint(a);
  a.write(1, 7, 1, 70);
  a.write(0, 3, 1, 30);
  // Undo at trip 5: writer 7 >= 5 -> restored to the checkpoint value.
  EXPECT_EQ(undo_beyond(a, 5), 1);
  EXPECT_EQ(a.get(1), 0);
}

TEST(VersionedArray, WriteRawBypassesStamps) {
  VersionedArray<int> a(std::vector<int>(3, 5), 1);
  checkpoint(a);
  a.write_raw(0, 9);
  EXPECT_EQ(a.logged_writes(), 0u);
  EXPECT_EQ(undo_beyond(a, 0), 0);  // raw writes are never undone
  EXPECT_EQ(a.get(0), 9);
}

TEST(VersionedArray, UndoWithNoWritesIsNoop) {
  VersionedArray<int> a(std::vector<int>(100, 1), 1);
  checkpoint(a);
  EXPECT_EQ(undo_beyond(a, 0), 0);
}

TEST(VersionedArray, DataEscapeHatchAliasesStorage) {
  VersionedArray<int> a(std::vector<int>{1, 2, 3}, 1);
  a.data()[1] = 42;
  EXPECT_EQ(a.get(1), 42);
}

TEST(VersionedArray, EntriesKeepThe32BitIterationLimit) {
  static_assert(VersionedArray<int>::kMaxIter == 0xfffffffeL);
  static_assert(VersionedArray<int>::kMaxIndex == 0xfffffffeu);
  VersionedArray<int> a(std::vector<int>(8, 0), 1);
  checkpoint(a);
  a.write(0, 5, 2, 1);
  a.write(0, VersionedArray<int>::kMaxIter, 3, 1);
  // The largest iteration survives the round trip through 32 bits.
  EXPECT_EQ(undo_beyond(a, VersionedArray<int>::kMaxIter + 1), 0);
  EXPECT_EQ(a.get(3), 1);
  EXPECT_EQ(undo_beyond(a, VersionedArray<int>::kMaxIter), 1);
  EXPECT_EQ(a.get(3), 0);
  EXPECT_EQ(a.get(2), 1);
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

TEST(VersionedArray, NonTriviallyCopyableTakesElementCopyPath) {
  const long n = 200;
  VersionedArray<Tracked> a(std::vector<Tracked>(static_cast<std::size_t>(n)),
                            1);
  for (long i = 0; i < n; ++i) a.data()[static_cast<std::size_t>(i)].v = i;

  Tracked::copies = 0;
  checkpoint(a);
  // A memcpy checkpoint could not have bumped the counter: exactly one
  // element copy per location proves the element path ran.
  EXPECT_EQ(Tracked::copies, n);

  for (long i = 0; i < n; ++i)
    a.write(0, i, static_cast<std::size_t>(i), Tracked(i + 1000));
  Tracked::copies = 0;
  EXPECT_EQ(undo_beyond(a, 120), n - 120);
  EXPECT_EQ(Tracked::copies, n - 120);  // one copy per restored element
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)).v, i < 120 ? i + 1000 : i) << i;

  restore_all(a);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(a.get(static_cast<std::size_t>(i)).v, i) << i;
}

TEST(VersionedArray, ConcurrentAppendsUndoOvershotCollision) {
  // Every worker appends to its own log while the others do; two overshot
  // iterations on different workers write ONE index (a pattern the
  // trip-filtered PD test accepts, since both are past the trip).  That
  // index then sits in two logs, and only the undo stripe that holds it
  // restores it, from one thread.  (Run under TSan in CI via the
  // VersionedArray* filter; the handshake orders the two data stores.)
  ThreadPool pool(4);
  const long n = 1 << 14, trip = 9000;
  const long late = n - 6, later = n - 1;  // workers 2 and 3 under cyclic
  VersionedArray<long> a(std::vector<long>(static_cast<std::size_t>(n), -1),
                         pool.size());
  checkpoint(a);
  std::atomic<bool> late_done{false};
  DoallOptions opts;
  opts.sched = Sched::kStaticCyclic;
  doall(pool, 0, n, [&](long i, unsigned vpn) {
    auto idx = static_cast<std::size_t>(i);
    if (i == later) {
      while (!late_done.load(std::memory_order_acquire)) std::this_thread::yield();
      idx = static_cast<std::size_t>(late);
    }
    a.write(vpn, i, idx, i * 3);
    if (i == late) late_done.store(true, std::memory_order_release);
  }, opts);
  EXPECT_EQ(a.logged_writes(), static_cast<std::size_t>(n));
  // Test-local oracle: one entry per write by an iteration >= trip.
  EXPECT_EQ(undo_in_stripes(a, trip, pool), n - trip);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(a.get(static_cast<std::size_t>(i)), i < trip ? i * 3 : -1) << i;
}

TEST(VersionedArray, ClearLogKeepsSegmentsForWarmRetries) {
  const long n = 4096;
  VersionedArray<int> a(std::vector<int>(static_cast<std::size_t>(n), 0), 1);
  for (int round = 0; round < 100; ++round) {
    checkpoint(a);
    a.write(0, 7, 100, round);
    a.write(0, 9, 2100, round);
    ASSERT_EQ(undo_beyond(a, 8), 1) << round;
    ASSERT_EQ(a.get(2100), 0) << round;
    ASSERT_EQ(a.get(100), round) << round;
    a.data()[100] = 0;  // reset for the next round
    a.clear_log();
    ASSERT_EQ(a.logged_writes(), 0u);
  }
  const UndoStats s = a.stats();
  EXPECT_EQ(s.resets, 100);
  EXPECT_EQ(s.checkpoints, 100);
  EXPECT_EQ(s.segments, 1);  // one segment, allocated once and reused
}

TEST(VersionedArray, SegmentsAreSizedByTheArrayAndChain) {
  // A small array gets segments no larger than itself; writes past one
  // segment chain into the next, and the tail walk crosses the boundary.
  const std::size_t n = 16;
  VersionedArray<int> a(std::vector<int>(n, 0), 1);
  checkpoint(a);
  for (long i = 0; i < 40; ++i)
    a.write(0, i, static_cast<std::size_t>(i) % n, static_cast<int>(i + 1));
  EXPECT_EQ(a.stats().segments, 3);  // 40 entries in segments of 16
  EXPECT_EQ(a.logged_writes(), 40u);
  // Iterations 30..39 span the last two segments and wrote indices 14, 15
  // and 0..7; indices 8..13 keep their last write, by iteration i + 16.
  EXPECT_EQ(undo_beyond(a, 30), 10);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(a.get(i), i >= 8 && i <= 13 ? static_cast<int>(i + 17) : 0) << i;
}

TEST(VersionedArray, MemoryBytesCountsDataBackupAndLog) {
  using VA = VersionedArray<long>;
  const std::size_t n = 3 * VA::kSegmentEntries + 5;
  const unsigned workers = 2;
  VA a(std::vector<long>(n, 0), workers);
  const std::size_t before = a.memory_bytes();
  EXPECT_EQ(before, n * sizeof(long));  // data only: no backup, no log yet
  checkpoint(a);
  const std::size_t with_backup = a.memory_bytes();
  EXPECT_EQ(with_backup, before + n * sizeof(long));  // + backup
  // Each element written once, split across two workers: 12 291 and 12 290
  // entries, two segments each.  Opened segments count whole, which stays
  // within the 8-byte stamp per element the log replaced plus one partly
  // filled segment per worker.
  const std::size_t seg_bytes = VA::kSegmentEntries * sizeof(std::uint64_t);
  for (std::size_t i = 0; i < n; ++i)
    a.write(static_cast<unsigned>(i % 2), static_cast<long>(i), i, 1);
  EXPECT_EQ(a.memory_bytes(), with_backup + 4 * seg_bytes);
  EXPECT_LE(a.memory_bytes(),
            with_backup + n * sizeof(std::uint64_t) + workers * seg_bytes);
  EXPECT_EQ(a.logged_writes(), n);
  // discard keeps the pooled buffer: the footprint (and therefore the
  // window controller's charge) does not shrink.
  a.discard_checkpoint();
  EXPECT_EQ(a.memory_bytes(), with_backup + 4 * seg_bytes);
  EXPECT_FALSE(a.has_checkpoint());
  a.clear_log();
  EXPECT_EQ(a.memory_bytes(), with_backup);
  EXPECT_EQ(a.stats().segments, 4);  // kept for the next retry
}

TEST(VersionedArray, FusedUndoMatchesPerElementReference) {
  // The tail walk must agree with a per-element oracle on a scattered
  // pseudo-random write pattern spread over several workers' logs: every
  // location some iteration >= trip wrote goes back to its known pre-loop
  // value, and the count is one per such write.
  const std::size_t n = 1 << 14;
  const long trip = 1000;
  const unsigned workers = 3;
  VersionedArray<long> fused(std::vector<long>(n, -7), workers);
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
    fused.write(static_cast<unsigned>(iter % workers), iter, idx, iter);
    ref[idx] = iter;
    max_writer[idx] = std::max(max_writer[idx], iter);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (max_writer[i] >= trip) ref[i] = -7;
  // One entry per write: iterations trip..1999 wrote once each.
  EXPECT_EQ(undo_beyond(fused, trip), 2000 - trip);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(fused.get(i), ref[i]) << i;
}

}  // namespace
}  // namespace wlp
