// Hash-table backup for sparse access patterns — Section 4.
//
// "If the access pattern of any array in the loop is known to be sparse,
// then the memory requirements could be reduced by using hash tables ...
// since only the elements of the array accessed in the loop would be
// inserted."  HashBackup<T> is a fixed-capacity, open-addressing concurrent
// map from array index to (pre-loop value, max writer stamp).  The first
// writer of a location claims a slot and saves the old value; subsequent
// writers only raise the stamp.
//
// Epoch-stamped slots: both the slot tag ((epoch << 32) | (key + 1)) and the
// writer stamp ((epoch << 32) | (iter + 1)) carry the table's clear-epoch in
// their high bits, so clear() is an O(1) epoch bump instead of an O(capacity)
// sweep.  A slot whose tag epoch is stale is free for claiming; a real sweep
// happens once per 2^32 clears, when the 32-bit epoch wraps, and restarts
// the counter at 1 (epoch 0 is reserved for "never claimed").
// Because the epoch only grows between sweeps, the stamp's numeric fetch-max
// stays exact even when a slot is reclaimed: every current-epoch stamp
// dominates every stale one.
//
// The slot table itself is an arena-backed open-addressing array: storage
// comes from mem::process_arena(), so a table retired by one strip driver
// is recycled in O(1) by the next table of the same capacity and the bytes
// are visible to the wlp.mem budget.
//
// Capacity exhaustion does NOT throw: record() returns false and latches a
// per-run overflow flag.  Throwing here would unwind through a pool worker
// and terminate at the join; instead SpecRound::validate checks
// overflowed() after the parallel section and fails the round: full
// restore, then sequential re-execution (the caller skips its data write
// when record() fails, so the recorded set still restores the exact
// pre-loop state).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "wlp/mem/arena.hpp"
#include "wlp/support/prng.hpp"

namespace wlp {

template <class T>
class HashBackup {
 public:
  /// Largest recordable array index: the packed tag keeps (key + 1) in 32
  /// bits.  Arrays past 4G elements would not want a sparse backup anyway.
  static constexpr std::size_t kMaxKey = 0xfffffffeu;
  static constexpr long kMaxIter = 0xfffffffeL;

  /// `capacity` is rounded up to a power of two and should exceed the
  /// expected number of *distinct* written locations by ~2x.
  explicit HashBackup(std::size_t capacity)
      : slots_(round_capacity(capacity)) {
    mask_ = slots_.size() - 1;
  }

  /// Record that iteration `iter` is about to overwrite data[idx], whose
  /// current (possibly pre-loop) value is `old_value`.  Only the first
  /// recorder's old value is kept — by construction that is the pre-loop
  /// value, because every writer records before writing.
  ///
  /// Returns false when the table is full: the entry was NOT recorded and
  /// overflowed() is latched.  The caller must then skip its own data write
  /// so a full restore can still reproduce the pre-loop state.
  bool record(long iter, std::size_t idx, const T& old_value) {
    Slot* s = find_or_claim(idx, &old_value);
    if (s == nullptr) {
      overflow_.store(true, std::memory_order_relaxed);
      return false;
    }
    // fetch-max on the packed stamp; stale-epoch residue is numerically
    // smaller than any current-epoch value, so plain max is exact.
    const std::uint64_t want = pack_stamp(iter);
    std::uint64_t cur = s->stamp.load(std::memory_order_relaxed);
    while (want > cur && !s->stamp.compare_exchange_weak(
                             cur, want, std::memory_order_acq_rel)) {
    }
    return true;
  }

  /// Did any record() since the last clear() hit capacity?
  bool overflowed() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }

  /// The one undo: restore into `data` every recorded location in the slot
  /// range [lo, hi) whose stamp is >= trip (trip < 0 restores everything
  /// recorded).  Returns the number restored.  Distinct keys live in
  /// distinct slots, so calls over disjoint slot ranges may run
  /// concurrently: a SpecRound packs these chunks into its single parallel
  /// undo pass alongside the dense targets' log walks, so a mixed dense+hash
  /// round still runs one pool dispatch and one join.
  long undo_slots(std::vector<T>& data, long trip, std::size_t lo,
                  std::size_t hi) noexcept {
    // Empty-table early-out: a retry that recorded nothing (no write, or a
    // full restore already cleared the table) would otherwise stream every
    // slot chunk of the round's static unit map to find no live tags.
    if (entries() == 0) return 0;
    const std::uint64_t threshold = stamp_threshold(trip);
    const std::size_t end = std::min(hi, slots_.size());
    long undone = 0;
    for (std::size_t i = lo; i < end; ++i) {
      Slot& s = slots_[i];
      const std::uint64_t tag = s.tag.load(std::memory_order_acquire);
      if ((tag >> 32) != epoch_) continue;  // free or stale slot
      if (s.stamp.load(std::memory_order_relaxed) >= threshold) {
        data[static_cast<std::size_t>(tag & 0xffffffffu) - 1] = s.saved;
        ++undone;
      }
    }
    return undone;
  }

  std::size_t entries() const noexcept {
    return occupied_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Drop every recorded entry (commit point in strip-wise drivers): an O(1)
  /// epoch bump.  Slots stamped with older epochs read as free.
  void clear() noexcept {
    if (++epoch_ == 0) {
      sweep_epochs();
      epoch_ = 1;
      ++sweeps_;
    }
    ++resets_;
    occupied_.store(0, std::memory_order_relaxed);
    overflow_.store(false, std::memory_order_relaxed);
  }

  /// Bytes of backup state actually in use — the quantity the Section 8
  /// window controller budgets against.
  std::size_t memory_bytes() const noexcept {
    return entries() * sizeof(Slot);
  }

  long resets() const noexcept { return resets_; }
  long sweeps() const noexcept { return sweeps_; }

  /// Test hook: sweep (counted: the hook really does erase every slot),
  /// then jump the epoch to `e` so a test can force the once-per-2^32
  /// sweep without 4G clears.
  void set_epoch_for_test(std::uint32_t e) noexcept {
    sweep_epochs();
    ++sweeps_;
    epoch_ = e;
  }

 private:
  struct Slot {
    /// (epoch << 32) | (key + 1); 0 or a stale epoch = free.
    std::atomic<std::uint64_t> tag{0};
    /// (epoch << 32) | (iter + 1); raised by fetch-max.
    std::atomic<std::uint64_t> stamp{0};
    T saved{};
  };

  static std::size_t round_capacity(std::size_t capacity) noexcept {
    std::size_t cap = 16;
    while (cap < capacity) cap <<= 1;
    return cap;
  }

  std::uint64_t pack_tag(std::size_t idx) const noexcept {
    assert(idx <= kMaxKey);
    return (static_cast<std::uint64_t>(epoch_) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(idx + 1));
  }

  std::uint64_t pack_stamp(long iter) const noexcept {
    assert(iter >= 0 && iter <= kMaxIter);
    return (static_cast<std::uint64_t>(epoch_) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(iter + 1));
  }

  std::uint64_t stamp_threshold(long trip) const noexcept {
    if (trip < 0) trip = -1;
    const std::uint64_t low =
        trip >= kMaxIter ? (1ull << 32) : static_cast<std::uint64_t>(trip + 1);
    return (static_cast<std::uint64_t>(epoch_) << 32) + low;
  }

  /// Returns the slot owning `idx`, claiming a free/stale one if needed, or
  /// nullptr when every slot on the probe path is live with another key.
  Slot* find_or_claim(std::size_t idx, const T* old_value) {
    const std::uint64_t want_tag = pack_tag(idx);
    std::size_t h = static_cast<std::size_t>(mix64(idx)) & mask_;
    for (std::size_t probes = 0; probes <= mask_; ++probes) {
      Slot& s = slots_[h];
      std::uint64_t tag = s.tag.load(std::memory_order_acquire);
      if (tag == want_tag) return &s;
      if ((tag >> 32) != epoch_) {
        // Free (or stale-epoch) slot: claim it by publishing the tag first;
        // only the CAS winner writes `saved` (losers for the same key return
        // the slot and never touch the payload).  undo_slots runs after the
        // parallel section, so the pool join publishes the value.
        if (s.tag.compare_exchange_strong(tag, want_tag,
                                          std::memory_order_acq_rel)) {
          s.saved = *old_value;
          occupied_.fetch_add(1, std::memory_order_relaxed);
          return &s;
        }
        if (tag == want_tag) return &s;  // someone claimed it for our key
        // else: claimed for a different key; keep probing
      }
      h = (h + 1) & mask_;
    }
    return nullptr;
  }

  /// Once per 2^32 clears: genuinely forget every slot by storing the
  /// reserved epoch 0; clear() restarts the counter above it.
  void sweep_epochs() noexcept {
    for (auto& s : slots_) {
      s.tag.store(0, std::memory_order_relaxed);
      s.stamp.store(0, std::memory_order_relaxed);
    }
  }

  std::vector<Slot, mem::ArenaAllocator<Slot>> slots_;  ///< recycled on retire
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 1;  ///< epoch 0 is reserved for "never claimed"
  long resets_ = 0;          ///< clear() calls
  long sweeps_ = 0;          ///< real sweeps: wraps and the test hook
  std::atomic<std::size_t> occupied_{0};
  std::atomic<bool> overflow_{false};
};

}  // namespace wlp
