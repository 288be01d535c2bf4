// Section 4 — undoing iterations that overshoot the termination condition.
//
// VersionedArray<T, K> implements the paper's simplest scheme: checkpoint
// the array before the speculative DOALL, record which iteration wrote which
// location, and after the loop — once the last valid iteration is known —
// restore every location an overshot iteration wrote.  The paper prices
// this at 3x the data (data + checkpoint + write record); memory_bytes()
// measures it.  The sparse alternative lives in sparse_backup.hpp.
//
// Lanes.  K equal-length arrays indexed by ONE subscript share one write
// record: a write stores every lane at its index and appends one entry, so
// K lanes pin K x (data + backup) plus a single log, and the undo walk
// reads each entry once and restores every lane.  This is the static fact
// "these arrays are always written through the same subscript in the same
// iteration" stated as a type: TRACK's pos and vel are one two-lane array.
// K = 1 is the plain array.
//
// The array has no checkpoint or undo pass of its own: it exposes span
// hooks (txn_checkpoint_span, txn_undo, txn_restore_all_span), and
// SpecTransaction (txn.hpp) runs them as one fused parallel pass over all
// of a loop's targets.
//
// The write record is one append-only log per worker of 8-byte
// (index, iteration) entries.  Every driver's claim (doall_quit's
// self-sized blocks, the strip driver, the sliding window) hands each
// worker its iterations in increasing order, so each
// worker's log is sorted by iteration as it is written.  txn_undo(trip, ...)
// walks every log from its tail while the iteration is >= trip and restores
// those indices from the checkpoint.  That restores exactly
// {i : some write to i came from an iteration >= trip} — the set a
// per-location max-stamp selects — in O(overshoot writes), and the write
// path is a plain store into the worker's own log: no CAS, no shared word.
//
// The write-once-per-location property the paper assumes ("since all
// iterations of the WHILE loop are independent, each memory location will be
// written during at most one iteration") is NOT silently assumed here: a
// location is restored if ANY overshot iteration wrote it, on any worker.
// Violations of the assumption are exactly what the PD test (Section 5)
// detects.
//
// Storage: the backups and the log segments (IterLog, iter_log.hpp) draw
// from the process arena (wlp::mem), so a retired array's buffers are
// recycled in O(1) by the next array of the same shape and every byte
// shows up in the wlp.mem budget.  Sizing a backup does not
// zero it: the checkpoint copy overwrites every element anyway.  A segment
// holds min(n, kSegmentEntries) entries and is allocated on a worker's
// first write past its open segment; clear_log() rewinds the fill
// positions and keeps the segments, so warm retries allocate nothing.
//
// Concurrency contract: worker vpn appends only to log vpn (the data stores
// race only when iterations genuinely collide, which the PD test reports);
// the checkpoint, undo and restore hooks, clear_log and the exact
// logged_writes() run only when no writes are in flight — the fork-join
// barrier of the speculative drivers is the happens-before edge that
// publishes the logs to the undo pass.
// memory_bytes() is the one reader allowed while workers append (the
// sliding window polls it at every claim): it reads capacities and a
// relaxed count of opened segments, never a log's fill position.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "wlp/core/iter_log.hpp"
#include "wlp/mem/arena.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// Bookkeeping the tests read: how many resets and checkpoints the array
/// has paid for, and how many log segments it holds.
struct UndoStats {
  long resets = 0;       ///< clear_log() calls
  long checkpoints = 0;  ///< txn_checkpoint_begin() calls
  long segments = 0;     ///< log segments allocated (kept across resets)
};

template <class T, std::size_t K = 1>
class VersionedArray {
  static_assert(K >= 1, "VersionedArray: at least one lane");

 public:
  /// Largest iteration and index an entry records (32-bit fields); the
  /// constructor applies the index limit to the array size.
  static constexpr long kMaxIter = IterLog::kMaxIter;
  static constexpr std::size_t kMaxIndex = IterLog::kMaxIndex;
  /// Entries per log segment for arrays at least this large (64 KiB).
  static constexpr std::size_t kSegmentEntries = 8192;

  /// `workers` is the number of virtual processors that will write (one log
  /// each); write() takes the writer's vpn, which must be below it.
  VersionedArray(std::vector<T> init, unsigned workers)
    requires(K == 1)
      : VersionedArray(std::array<std::vector<T>, 1>{std::move(init)},
                       workers) {}

  /// K lanes indexed by one subscript; throws std::invalid_argument when
  /// their lengths differ.
  VersionedArray(std::array<std::vector<T>, K> lanes, unsigned workers)
      : seg_entries_(
            std::clamp<std::size_t>(lanes[0].size(), 1, kSegmentEntries)) {
    for (const std::vector<T>& l : lanes)
      if (l.size() != lanes[0].size())
        throw std::invalid_argument(
            "VersionedArray: lanes differ in length");
    if (lanes[0].size() > kMaxIndex + 1)
      throw std::length_error(
          "VersionedArray: size exceeds the log's 32-bit index");
    for (std::size_t l = 0; l < K; ++l) lanes_[l].data = std::move(lanes[l]);
    logs_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      logs_.emplace_back(seg_entries_, &open_segments_);
  }

  VersionedArray(const VersionedArray&) = delete;
  VersionedArray& operator=(const VersionedArray&) = delete;

  /// Elements per lane.
  std::size_t size() const noexcept { return lanes_[0].data.size(); }

  /// Live value (reads are never versioned; anti-dependences on the original
  /// values are the checkpoint's job).
  const T& get(std::size_t idx, std::size_t lane = 0) const noexcept {
    return lanes_[lane].data[idx];
  }

  /// Logged speculative write by iteration `iter` on worker `vpn`: stores
  /// one value per lane at `idx` and appends ONE log entry.  A worker must
  /// issue its iterations in increasing order (every driver schedule does);
  /// writes within one iteration may come in any order.
  template <std::convertible_to<T>... V>
    requires(sizeof...(V) + 1 == K)
  void write(unsigned vpn, long iter, std::size_t idx, const T& v0,
             const V&... v) {
    assert(vpn < logs_.size());
    assert(iter >= 0 && iter <= kMaxIter);
    lanes_[0].data[idx] = v0;
    [[maybe_unused]] std::size_t lane = 0;
    ((lanes_[++lane].data[idx] = v), ...);
    IterLog& log = logs_[vpn];
    assert(log.last_iter() <= iter);
    log.push(idx, iter);
  }

  /// Unlogged write (sequential / non-speculative contexts).
  void write_raw(std::size_t idx, const T& v) noexcept
    requires(K == 1)
  {
    lanes_[0].data[idx] = v;
  }

  bool has_checkpoint() const noexcept { return has_checkpoint_ || size() == 0; }

  // ---- fused-transaction hooks (SpecTransaction, txn.hpp) ------------------
  // The transaction runs ONE pool-parallel checkpoint over the concatenated
  // element ranges of all its members, so the checkpoint, the undo and the
  // full restore are span operations: begin sizes the pooled buffers and
  // counts the checkpoint (the Tb term), the span calls do the copies, and
  // the transaction — not the member — times them and publishes the
  // wlp.undo.* metrics once.  The array is ONE member of size() indices:
  // each span call copies [b, e) of every lane.

  /// Prepare the pooled backup buffers; returns indices to copy.
  std::size_t txn_checkpoint_begin() {
    for (Lane& l : lanes_) l.backup.resize(size());
    has_checkpoint_ = true;
    ++stats_.checkpoints;
    return size();
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) noexcept {
    for (Lane& l : lanes_) copy_span(l.data.data(), l.backup.data(), b, e);
  }
  void txn_restore_all_span(std::size_t b, std::size_t e) noexcept {
    assert(has_checkpoint());
    for (Lane& l : lanes_) copy_span(l.backup.data(), l.data.data(), b, e);
  }

  /// The undo walk (a transaction's undo unit, the Ta term): every
  /// worker's log from its tail while the entry's iteration is >= trip,
  /// restoring every lane of the logged indices that fall in [lo, hi) from
  /// the backup.  Walks over disjoint index ranges may run concurrently: a
  /// location two overshot workers wrote is still restored by one thread
  /// only.  Returns the element writes taken back, K per entry: a location
  /// written by k overshot writes counts k·K times.
  long txn_undo(long trip, std::size_t lo, std::size_t hi) noexcept {
    assert(has_checkpoint());
    long undone = 0;
    for (const IterLog& log : logs_)
      log.walk_back([&](const IterEntry& e) {
        if (static_cast<long>(e.iter) < trip) return false;
        if (e.idx - lo < hi - lo) {  // else another walk's range
          for (Lane& l : lanes_) l.data[e.idx] = l.backup[e.idx];
          undone += static_cast<long>(K);
        }
        return true;
      });
    return undone;
  }

  /// O(workers): rewind every log; the segments stay allocated for reuse.
  void clear_log() noexcept {
    for (IterLog& log : logs_) log.clear();
    open_segments_.store(0, std::memory_order_relaxed);
    ++stats_.resets;
  }

  /// Commit: drop the checkpoint.  The buffers are KEPT (pooled) so the
  /// next strip's checkpoint allocates nothing; memory_bytes() still counts
  /// them.
  void discard_checkpoint() noexcept { has_checkpoint_ = false; }

  /// Log entries since the last clear_log(), across all workers: one per
  /// write, whatever K is (exact; quiescent only).
  std::size_t logged_writes() const noexcept {
    std::size_t n = 0;
    for (const IterLog& log : logs_) n += log.size();
    return n;
  }

  /// Bytes of state this array pins: K x (data + pooled backup) plus the
  /// segments of the ONE log opened since the last clear_log() — the
  /// paper's 3x note, measured.  This is what the Section 8 sliding-window
  /// memory budget controller charges for a dense target, polled while
  /// workers append, so every opened segment counts whole: a run that
  /// writes each index at most once charges at most 8 bytes per index plus
  /// one partly filled segment per worker.
  std::size_t memory_bytes() const noexcept {
    std::size_t b = 0;
    for (const Lane& l : lanes_)
      b += (l.data.capacity() + l.backup.capacity()) * sizeof(T);
    return b + open_segments_.load(std::memory_order_relaxed) * seg_entries_ *
                   sizeof(IterEntry);
  }

  /// The per-worker write logs, for a PDMarks that reads them as its write
  /// marks (SpecArray): one append per write then serves the undo and the
  /// PD test.
  std::span<IterLog> logs() noexcept { return logs_; }

  UndoStats stats() const noexcept {
    UndoStats s = stats_;
    for (const IterLog& log : logs_)
      s.segments += static_cast<long>(log.segments());
    return s;
  }

  /// Escape hatch for sequential re-execution and verification.
  std::vector<T>& data(std::size_t lane = 0) noexcept {
    return lanes_[lane].data;
  }
  const std::vector<T>& data(std::size_t lane = 0) const noexcept {
    return lanes_[lane].data;
  }

 private:
  /// The backup's allocator: the arena allocator, except that a
  /// no-argument construct default-initializes.  resize() then leaves the
  /// elements as the arena handed them out (no stores at all for a
  /// trivial T) instead of zero-filling a buffer the checkpoint copy
  /// overwrites whole.
  template <class U>
  struct BackupAlloc : mem::ArenaAllocator<U> {
    using mem::ArenaAllocator<U>::ArenaAllocator;
    template <class V>
    struct rebind {
      using other = BackupAlloc<V>;
    };
    template <class V>
    void construct(V* p) noexcept(std::is_nothrow_default_constructible_v<V>) {
      ::new (static_cast<void*>(p)) V;
    }
  };

  /// Copy [b, e) src -> dst: memcpy for trivially-copyable T, element
  /// assignment otherwise (the fast path MUST NOT be taken for types with
  /// real copy semantics).  Raw pointers because the backup vector and the
  /// data vector use different allocators.
  static void copy_span(const T* src, T* dst, std::size_t b,
                        std::size_t e) noexcept {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (e > b) std::memcpy(dst + b, src + b, (e - b) * sizeof(T));
    } else {
      for (std::size_t i = b; i < e; ++i) dst[i] = src[i];
    }
  }

  /// One lane: its live data and its checkpoint.
  struct Lane {
    std::vector<T> data;
    /// Arena-pooled (recycled across arrays); sized without a zero fill.
    std::vector<T, BackupAlloc<T>> backup;
  };

  std::array<Lane, K> lanes_;
  std::size_t seg_entries_;  ///< entries per log segment
  std::vector<IterLog> logs_;  ///< one per worker, written only by it
  /// Segments opened since the last clear_log(), summed over the workers:
  /// the log term of memory_bytes(), safe to read mid-run.  Own cache line,
  /// so its once-per-segment bump stays off the lines every write reads.
  alignas(kCacheLine) std::atomic<std::size_t> open_segments_{0};
  bool has_checkpoint_ = false;
  UndoStats stats_;
};

}  // namespace wlp
