#include <gtest/gtest.h>

#include <vector>

#include "wlp/core/sparse_backup.hpp"
#include "wlp/core/spec_round.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {
namespace {

/// The whole table through HashBackup's one undo, undo_slots, on the
/// calling thread (trip < 0 restores everything recorded).
template <class T>
long undo_table(HashBackup<T>& backup, std::vector<T>& data, long trip) {
  return backup.undo_slots(data, trip, 0, backup.capacity());
}

TEST(HashBackup, UndoRestoresOvershotLocationsOnly) {
  std::vector<double> data(100, 0.0);
  HashBackup<double> backup(64);
  // Iteration 3 writes idx 10; iteration 9 writes idx 20.
  backup.record(3, 10, data[10]);
  data[10] = 3.0;
  backup.record(9, 20, data[20]);
  data[20] = 9.0;

  EXPECT_EQ(undo_table(backup, data, 5), 1);  // only iteration 9's write undone
  EXPECT_EQ(data[10], 3.0);
  EXPECT_EQ(data[20], 0.0);
}

TEST(HashBackup, FirstRecorderKeepsPreLoopValue) {
  std::vector<double> data{42.0};
  HashBackup<double> backup(16);
  backup.record(2, 0, data[0]);
  data[0] = 2.0;
  backup.record(7, 0, data[0]);  // second writer records the CURRENT value,
  data[0] = 7.0;                 // but the saved value stays the pre-loop one
  EXPECT_EQ(undo_table(backup, data, -1), 1);
  EXPECT_EQ(data[0], 42.0);
}

TEST(HashBackup, StampIsMaxWriter) {
  std::vector<double> data{0.0};
  HashBackup<double> backup(16);
  backup.record(9, 0, 0.0);
  backup.record(3, 0, 0.0);
  data[0] = 1.0;
  // Max stamp is 9 >= trip 5: restored.
  EXPECT_EQ(undo_table(backup, data, 5), 1);
  EXPECT_EQ(data[0], 0.0);
}

TEST(HashBackup, MemoryProportionalToTouchedSet) {
  HashBackup<double> backup(1024);
  for (int i = 0; i < 100; ++i) backup.record(i, static_cast<std::size_t>(i * 7), 0.0);
  EXPECT_EQ(backup.entries(), 100u);
  const std::size_t bytes100 = backup.memory_bytes();
  backup.record(200, 9999, 0.0);
  // One more distinct location -> exactly one slot more of memory.
  EXPECT_EQ(backup.memory_bytes(), bytes100 + bytes100 / 100);
}

TEST(HashBackup, CapacityExhaustionSetsOverflowFlag) {
  // Exhaustion must NOT throw (record() runs inside pool workers, where an
  // exception would unwind through the join); it latches a per-run flag and
  // reports the failed record to the caller instead.
  HashBackup<int> backup(16);  // rounds to 16 slots
  bool all_recorded = true;
  for (std::size_t i = 0; i < 64; ++i)
    all_recorded = backup.record(0, i, 0) && all_recorded;
  EXPECT_FALSE(all_recorded);
  EXPECT_TRUE(backup.overflowed());
  EXPECT_EQ(backup.entries(), backup.capacity());
  // clear() resets the flag along with the entries.
  backup.clear();
  EXPECT_FALSE(backup.overflowed());
  EXPECT_EQ(backup.entries(), 0u);
  EXPECT_TRUE(backup.record(0, 3, 0));
}

TEST(HashBackup, ClearIsEpochBumpNotSweep) {
  // 100 record/undo/clear rounds: every slot is reclaimed by the epoch bump
  // alone — zero O(capacity) sweeps, and every round stays exact.
  std::vector<double> data{1.0, 2.0, 3.0};
  HashBackup<double> backup(64);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(backup.record(5, 1, data[1]));
    data[1] = 99.0;
    ASSERT_EQ(undo_table(backup, data, 0), 1) << round;
    ASSERT_EQ(data[1], 2.0) << round;
    backup.clear();
    ASSERT_EQ(backup.entries(), 0u);
  }
  EXPECT_EQ(backup.resets(), 100);
  EXPECT_EQ(backup.sweeps(), 0);
}

TEST(HashBackup, EpochWrapForcesExactlyOneSweep) {
  std::vector<int> data{7, 7, 7, 7};
  HashBackup<int> backup(16);
  backup.set_epoch_for_test(0xffffffffu);  // one sweep from the hook itself
  ASSERT_TRUE(backup.record(3, 2, data[2]));
  data[2] = 50;
  backup.clear();  // epoch wraps: the once-per-2^32 sweep fires
  EXPECT_EQ(backup.sweeps(), 2);
  // Nothing from the pre-wrap run may leak into the new epoch.
  EXPECT_EQ(backup.entries(), 0u);
  EXPECT_EQ(undo_table(backup, data, -1), 0);
  EXPECT_EQ(data[2], 50);
  // And the table is fully functional after the wrap.
  ASSERT_TRUE(backup.record(1, 2, data[2]));
  data[2] = 60;
  EXPECT_EQ(undo_table(backup, data, 0), 1);
  EXPECT_EQ(data[2], 50);
}

TEST(HashBackup, ParallelUndoMatchesSerial) {
  ThreadPool pool(4);
  const long n = 20000;
  std::vector<long> data(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) data[static_cast<std::size_t>(i)] = i;
  HashBackup<long> backup(65536);
  doall(pool, 0, n, [&](long i, unsigned) {
    backup.record(i, static_cast<std::size_t>(i), data[static_cast<std::size_t>(i)]);
    data[static_cast<std::size_t>(i)] = -1;
  });
  // The round's slot-partitioned parallel undo: undo_slots over
  // SpecRound::kSlotChunk-slot chunks on the pool.  Distinct keys live in
  // distinct slots, so workers never write the same element.
  constexpr std::size_t kChunk = SpecRound::kSlotChunk;
  const auto chunks =
      static_cast<long>((backup.capacity() + kChunk - 1) / kChunk);
  PerWorker<long> part(pool.size(), 0);
  doall(pool, 0, chunks, [&](long c, unsigned vpn) {
    const std::size_t lo = static_cast<std::size_t>(c) * kChunk;
    part[vpn] += backup.undo_slots(data, 12000, lo, lo + kChunk);
  });
  EXPECT_EQ(part.reduce(0L, [](long a, long b) { return a + b; }), n - 12000);
  for (long i = 0; i < n; ++i)
    ASSERT_EQ(data[static_cast<std::size_t>(i)], i < 12000 ? -1 : i) << i;
}

TEST(HashBackup, ConcurrentRecordingIsConsistent) {
  ThreadPool pool(4);
  const long n = 5000;
  std::vector<long> data(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) data[static_cast<std::size_t>(i)] = i;
  HashBackup<long> backup(16384);
  doall(pool, 0, n, [&](long i, unsigned) {
    backup.record(i, static_cast<std::size_t>(i), data[static_cast<std::size_t>(i)]);
    data[static_cast<std::size_t>(i)] = -1;
  });
  EXPECT_EQ(backup.entries(), static_cast<std::size_t>(n));
  EXPECT_EQ(undo_table(backup, data, 2500), n - 2500);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(data[static_cast<std::size_t>(i)], i < 2500 ? -1 : i) << i;
}

}  // namespace
}  // namespace wlp
