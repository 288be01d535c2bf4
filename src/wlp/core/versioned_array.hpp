// Section 4 — undoing iterations that overshoot the termination condition.
//
// VersionedArray<T> implements the paper's simplest scheme: checkpoint the
// array before the speculative DOALL, record for every location the
// iteration that wrote it (a time-stamp), and after the loop — once the last
// valid iteration is known — restore every location whose stamp belongs to
// an overshot iteration.  The paper notes the 3x memory cost (data +
// checkpoint + stamps, measured exactly by memory_bytes()); the sparse
// alternative lives in sparse_backup.hpp.
//
// The write-once-per-location property the paper assumes ("since all
// iterations of the WHILE loop are independent, each memory location will be
// written during at most one iteration") is NOT silently assumed here: the
// stamp kept is the *maximum* writer iteration, so undo_beyond() restores a
// location if any overshot iteration touched it.  Violations of the
// assumption are exactly what the PD test (Section 5) detects.
//
// Block-batched layout (the Tb/Ta terms of Section 7, paid per speculative
// run and per strip retry, are what this representation optimizes):
//
//   * Time-stamps are packed 64-bit words: (epoch << 32) | (iter + 1).
//     Because the epoch occupies the high bits and only ever grows, a
//     single unsigned compare answers both "is this stamp from the current
//     run?" and "is the writer >= trip?", and the fetch-max CAS the
//     concurrent writers race through is a plain numeric max.  A stamp
//     whose epoch is stale reads as kNoStamp.
//   * clear_stamps() is therefore an O(1) epoch bump (the PD shadow's
//     generation trick, Section 5.1 / DESIGN.md §5.1): strip retries,
//     run-twice passes and sliding-window re-speculations stop paying an
//     O(n) stamp sweep.  One real sweep happens per 2^32 resets, when the
//     32-bit epoch wraps.
//   * Writers additionally set one bit per 64-element *block* in a dirty
//     summary word: each word packs (epoch << 32) | 32 dirty bits, so one
//     word summarizes 2048 elements and the bitmap clears by the same
//     epoch bump.  A per-worker Writer view caches the last block it
//     dirtied (the PD Marker-view trick) so the common in-block write
//     stream skips even the summary-word load.
//   * undo_beyond() is ONE fused parallel pass over the summary words: only
//     words stamped with the current epoch are scanned and only their dirty
//     blocks' stamps are read, with maximal spans of adjacent dirty blocks
//     merged across summary-word boundaries so a densely-written region is
//     re-scanned as one continuous stream.  How a qualifying run is restored is chosen
//     by payload size at compile time: for payloads over two machine words
//     the copy dominates the pass, so contiguous runs of overshot stamps
//     are batched into a single memcpy (element-wise copy for
//     non-trivially-copyable T); for word-sized payloads the stamp scan
//     dominates and a two-phase skip/swallow scan loses the overlap of the
//     stamp, data and backup streams (measured ~0.9x of the per-element
//     baseline), so the restore is interleaved with a single-branch scan.
//   * checkpoint() is a pool-parallel chunked copy (memcpy per chunk for
//     trivially-copyable T); the backup buffer is pooled across runs, so a
//     steady-state strip loop allocates nothing.
//
// The stamp + dirty-summary + epoch machinery is factored into StampIndex
// so several trip-aligned arrays can ALIAS one index (DESIGN.md §9): a
// 2-array loop whose members are written by the same iterations shares one
// stamp word per location, halving stamp memory, and the SpecTransaction
// layer (txn.hpp) walks the shared dirty summary ONCE per retry and
// dispatches span restores to every member.  A VersionedArray constructed
// without an explicit index owns a private one — nothing changes for
// single-array loops.
//
// Concurrency contract (same as the PD shadow's): stamped writes may race
// with each other (stamps and dirty words are atomic; the data stores race
// only when iterations genuinely collide, which the PD test reports), while
// checkpoint / undo_beyond / restore_all / clear_stamps run only when no
// writes are in flight — the fork-join barrier of the speculative drivers
// provides the happens-before edge that publishes the relaxed stamp and
// bitmap updates to the undo pass.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "wlp/mem/arena.hpp"
#include "wlp/mem/epoch.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/sched/reduce.hpp"

namespace wlp {

/// Bookkeeping the tests and the cost model read: how many O(n) costs the
/// array has actually paid, and what the batched paths actually did.
struct UndoStats {
  long resets = 0;          ///< clear_stamps() calls (epoch bumps)
  long sweeps = 0;          ///< real O(n) sweeps (one per 2^32 resets)
  long checkpoints = 0;     ///< checkpoint() calls
  long blocks_dirty = 0;    ///< dirty blocks visited across all undo passes
  /// Contiguous restore runs batched into single copies.  Stays 0 for small
  /// payloads, whose undo path restores inline during the scan (see
  /// VersionedArray::kCoalesceRuns).
  long runs_coalesced = 0;
  double checkpoint_ns = 0; ///< total time in checkpoint() (the Tb term)
  double restore_ns = 0;    ///< total time in undo_beyond/restore_all (Ta)
};

/// The trip-indexed stamp + dirty-block-summary machinery, shareable across
/// several trip-aligned arrays.
///
/// Sharing contract (the aliasing rule DESIGN.md §9 spells out): arrays
/// aliasing one index must be written by the SAME iterations — the stamp at
/// location i is the max writer iteration across every member, so a member
/// whose location i was validly written while a sibling overshot i would be
/// restored to its checkpoint value and lose the valid write.  Restoring a
/// location a member never wrote is harmless (backup == live value), so
/// "same write set per iteration" (the common multi-array loop shape
/// A[f(i)] = ..; B[f(i)] = ..) is sufficient, not merely identical arrays.
///
/// Exactly one attacher is the CLEARER (claim_clearer(), first-come): only
/// it bumps the epoch on clear_stamps() — k members resetting a shared
/// index would otherwise advance the clock k times per retry and orphan the
/// stamps between bumps — and only it charges the index bytes to
/// memory_bytes(), so a transaction summing its members never double-counts
/// the shared words.
class StampIndex {
 public:
  static constexpr long kNoStamp = -1;
  /// Elements per dirty block: one cache line of 8-byte stamps.
  static constexpr std::size_t kBlockSize = 64;
  /// Dirty bits per summary word (the high 32 bits hold the word's epoch).
  static constexpr std::size_t kBlocksPerWord = 32;
  /// Elements one summary word covers.
  static constexpr std::size_t kWordSpan = kBlockSize * kBlocksPerWord;
  /// Largest representable writer iteration: the packed stamp keeps
  /// (iter + 1) in 32 bits.  Loops beyond 4G iterations would need the
  /// strip/window drivers anyway (stamp memory), which re-base per strip.
  static constexpr long kMaxIter = 0xfffffffeL;

  // Stamp and summary storage draws from the constructing thread's arena: a
  // retired index's buffers are recycled in O(1) by the next index of the
  // same shape, and every byte shows up in the wlp.mem budget.
  explicit StampIndex(std::size_t n)
      : stamp_(n, Alloc(mem::local_arena())),
        dirty_((n + kWordSpan - 1) / kWordSpan, Alloc(mem::local_arena())) {}

  std::size_t size() const noexcept { return stamp_.size(); }
  std::size_t words() const noexcept { return dirty_.size(); }
  std::uint32_t epoch() const noexcept { return clock_.value(); }
  long resets() const noexcept { return clock_.resets(); }
  long sweeps() const noexcept { return clock_.sweeps(); }

  /// First caller wins and becomes the member responsible for epoch bumps
  /// and for charging the index bytes (see class comment).
  bool claim_clearer() noexcept { return !clearer_claimed_.exchange(true); }

  std::uint64_t pack(long iter) const noexcept {
    assert(iter >= 0 && iter <= kMaxIter);
    return (static_cast<std::uint64_t>(clock_.value()) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(iter + 1));
  }

  /// Packed value a stamp must reach for "writer iteration >= trip" in the
  /// CURRENT epoch.  Stale-epoch stamps compare below it for any trip >= -1,
  /// so one unsigned compare filters both overshoot and staleness.
  std::uint64_t threshold(long trip) const noexcept {
    if (trip < 0) trip = -1;
    const std::uint64_t low =
        trip >= kMaxIter ? (1ull << 32)  // nothing can qualify
                         : static_cast<std::uint64_t>(trip + 1);
    return (static_cast<std::uint64_t>(clock_.value()) << 32) + low;
  }

  /// fetch-max on the packed stamp: the epoch rides the high bits, so the
  /// numeric max is exactly "current epoch wins over stale; larger iteration
  /// wins within the epoch".
  void stamp_max(std::size_t idx, long iter) noexcept {
    const std::uint64_t want = pack(iter);
    auto& s = stamp_[idx];
    std::uint64_t cur = s.load(std::memory_order_relaxed);
    while (want > cur &&
           !s.compare_exchange_weak(cur, want, std::memory_order_acq_rel)) {
    }
  }

  void mark_dirty(std::size_t block) noexcept {
    auto& w = dirty_[block / kBlocksPerWord];
    const std::uint32_t epoch = clock_.value();
    const std::uint64_t bit = 1ull << (block % kBlocksPerWord);
    const std::uint64_t tag = static_cast<std::uint64_t>(epoch) << 32;
    std::uint64_t cur = w.load(std::memory_order_relaxed);
    if ((cur >> 32) == epoch) {
      // Common case: the word already belongs to this run.  fetch_or never
      // touches the high half (bit < 2^32), and no writer re-bases a word
      // away from the current epoch while writes are in flight.
      if ((cur & bit) == 0) w.fetch_or(bit, std::memory_order_relaxed);
      return;
    }
    // Stale word: re-base it to the current epoch, discarding dead bits.
    // Racing writers either win the CAS or retry and land in the fetch_or
    // branch above — no clear-vs-set window exists.
    for (;;) {
      const std::uint64_t want =
          (cur >> 32) == epoch ? (cur | bit) : (tag | bit);
      if (want == cur) return;
      if (w.compare_exchange_weak(cur, want, std::memory_order_relaxed))
        return;
    }
  }

  const std::atomic<std::uint64_t>* stamps() const noexcept {
    return stamp_.data();
  }

  long stamp_iter(std::size_t idx) const noexcept {
    const std::uint64_t s = stamp_[idx].load(std::memory_order_relaxed);
    if ((s >> 32) != clock_.value()) return kNoStamp;
    return static_cast<long>(s & 0xffffffffu) - 1;
  }

  /// O(1): bump the epoch; stale stamps and summary words read as clear.
  /// One real sweep per 2^32 resets, when the 32-bit epoch wraps.  Called
  /// only by the clearer (see claim_clearer), at quiescent points.
  void clear() noexcept {
    clock_.bump([this] { sweep_epochs(); });
  }

  /// Test hook: sweep, then restart the epoch at `e` so a test can force
  /// the once-per-2^32 wrap without 4G resets.
  void jump_epoch(std::uint32_t e) noexcept {
    clock_.jump(e, [this] { sweep_epochs(); });
  }

  std::size_t memory_bytes() const noexcept {
    return stamp_.size() * sizeof(stamp_[0]) +
           dirty_.size() * sizeof(dirty_[0]);
  }

  /// Blocks written since the last clear(): one popcount per summary word
  /// over the current epoch — O(n / 2048), no stamp sweep.  This is the
  /// write-density input the verdict-cache signature folds in, measured
  /// from state the writes already maintain.
  long dirty_block_count() const noexcept {
    const std::uint32_t epoch = clock_.value();
    long blocks = 0;
    for (const auto& w : dirty_) {
      const std::uint64_t word = w.load(std::memory_order_relaxed);
      if ((word >> 32) == epoch)
        blocks += std::popcount(static_cast<std::uint32_t>(word));
    }
    return blocks;
  }

  /// Scan summary words [wlo, whi) over an array of `n` elements: stale
  /// words are skipped outright; maximal spans of ADJACENT dirty blocks are
  /// walked with the spans merged ACROSS word boundaries, so a
  /// densely-written region collapses into one continuous scan no matter
  /// how many summary words it crosses (each 2048-element restart would
  /// otherwise cost the prefetcher its stride).  `fn(span_b, span_e)` is
  /// invoked once per merged span — a VersionedArray restores itself from
  /// it; a SpecTransaction dispatches every group member back-to-back so
  /// the stamp words stay hot across members.  Returns dirty blocks
  /// visited.  Parallel callers partition the word range, so merging
  /// happens within each worker's contiguous chunk.
  template <class Fn>
  long scan_spans(std::size_t wlo, std::size_t whi, std::size_t n,
                  Fn&& fn) const noexcept {
    const std::uint32_t epoch = clock_.value();
    long blocks = 0;
    std::size_t w = wlo;
    std::uint32_t bits = 0;
    std::size_t have_w = static_cast<std::size_t>(-1);  // word `bits` is from
    while (true) {
      if (have_w != w) {
        if (w >= whi) break;
        const std::uint64_t word = dirty_[w].load(std::memory_order_relaxed);
        bits = (word >> 32) == epoch ? static_cast<std::uint32_t>(word) : 0u;
        blocks += std::popcount(bits);
        have_w = w;
      }
      if (bits == 0) {
        ++w;
        continue;
      }
      const int lo = std::countr_zero(bits);
      const int len = std::countr_one(bits >> lo);  // adjacent dirty blocks
      bits = len + lo >= 32 ? 0u : bits & ~(((1u << len) - 1u) << lo);
      const std::size_t span_b =
          (w * kBlocksPerWord + static_cast<std::size_t>(lo)) * kBlockSize;
      std::size_t span_blocks = static_cast<std::size_t>(len);
      // Merge forward: while the span abuts the top of its word and the
      // next word's dirty bits continue from the bottom, extend the span
      // and keep that word's leftover bits for the main loop.
      bool at_top = lo + len == 32;
      while (at_top && w + 1 < whi) {
        const std::uint64_t nxt = dirty_[w + 1].load(std::memory_order_relaxed);
        const std::uint32_t nb =
            (nxt >> 32) == epoch ? static_cast<std::uint32_t>(nxt) : 0u;
        const int lead = nb == 0xffffffffu ? 32 : std::countr_one(nb);
        ++w;
        blocks += std::popcount(nb);
        bits = lead >= 32 ? 0u : nb & ~((1u << lead) - 1u);
        have_w = w;
        if (lead == 0) break;
        span_blocks += static_cast<std::size_t>(lead);
        at_top = lead == 32;
      }
      const std::size_t span_e =
          std::min(span_b + span_blocks * kBlockSize, n);
      fn(span_b, span_e);
    }
    return blocks;
  }

 private:
  using Alloc = mem::ArenaAllocator<std::atomic<std::uint64_t>>;

  /// The once-per-2^32-resets cost: forget every stamp and summary word by
  /// storing the reserved epoch 0 (below any live epoch); the EpochClock
  /// restarts its counter above it.
  void sweep_epochs() noexcept {
    for (auto& s : stamp_) s.store(0, std::memory_order_relaxed);
    for (auto& w : dirty_) w.store(0, std::memory_order_relaxed);
  }

  /// (epoch << 32) | (iter + 1); 0 (epoch 0) = never stamped.
  std::vector<std::atomic<std::uint64_t>, Alloc> stamp_;
  /// (epoch << 32) | dirty bits for 32 blocks of 64 elements each.
  std::vector<std::atomic<std::uint64_t>, Alloc> dirty_;
  mem::EpochClock clock_;  ///< epoch 0 is reserved for "never written"
  std::atomic<bool> clearer_claimed_{false};
};

template <class T>
class VersionedArray {
 public:
  static constexpr long kNoStamp = StampIndex::kNoStamp;
  static constexpr std::size_t kBlockSize = StampIndex::kBlockSize;
  static constexpr std::size_t kBlocksPerWord = StampIndex::kBlocksPerWord;
  static constexpr std::size_t kWordSpan = StampIndex::kWordSpan;
  static constexpr long kMaxIter = StampIndex::kMaxIter;
  /// Whether the undo pass batches contiguous overshot runs into single
  /// copies.  For payloads up to two machine words the stamp scan dominates
  /// and the interleaved per-element restore measures at or ahead of the
  /// batched copy (the two-phase scan de-overlaps the memory streams), so
  /// batching only engages where the copy dominates.
  static constexpr bool kCoalesceRuns = sizeof(T) > 16;

  // Versioning state (backup; plus the stamp index when owned) draws from
  // the constructing thread's arena: a retired array's buffers are recycled
  // in O(1) by the next array of the same shape, and every byte shows up in
  // the wlp.mem budget instead of vanishing into malloc.
  //
  // `shared` aliases an existing trip-aligned StampIndex (see the StampIndex
  // class comment for the write-set contract); nullptr builds a private one.
  explicit VersionedArray(std::vector<T> init,
                          std::shared_ptr<StampIndex> shared = nullptr)
      : data_(std::move(init)),
        backup_(Alloc(mem::local_arena())),
        index_(shared ? std::move(shared)
                      : std::make_shared<StampIndex>(data_.size())) {
    assert(index_->size() == data_.size() &&
           "a shared StampIndex must match the aliasing array's size");
    clearer_ = index_->claim_clearer();
  }

  std::size_t size() const noexcept { return data_.size(); }

  /// Live value (reads are never versioned; anti-dependences on the original
  /// values are the checkpoint's job).
  const T& get(std::size_t idx) const noexcept { return data_[idx]; }

  /// Stamped speculative write by iteration `iter` (vpn-less path: pays the
  /// summary-word access every call; hot loops hold a Writer instead).
  void write(long iter, std::size_t idx, const T& v) noexcept {
    data_[idx] = v;
    index_->stamp_max(idx, iter);
    index_->mark_dirty(idx / kBlockSize);
  }

  /// Worker-bound write view: caches the last block it dirtied, so a run of
  /// writes landing in the same 64-element block pays the stamp CAS only —
  /// no summary-word load, no fetch_or (the PD Marker-view trick).
  ///
  /// A Writer is INVALIDATED by clear_stamps()/restore_all(): its cached
  /// block belongs to the dead epoch, and skipping the mark would leave the
  /// new epoch's block invisible to undo.  Call rebind() after every reset
  /// (SpecArray::reset_marks() does).
  class Writer {
   public:
    Writer() = default;

    void write(long iter, std::size_t idx, const T& v) noexcept {
      arr_->data_[idx] = v;
      arr_->index_->stamp_max(idx, iter);
      const std::size_t block = idx / kBlockSize;
      if (block == last_block_) return;  // summary bit already published
      last_block_ = block;
      arr_->index_->mark_dirty(block);
    }

    /// Drop the cached block; the next write re-publishes its summary bit.
    void rebind() noexcept { last_block_ = kNoBlock; }

   private:
    friend class VersionedArray;
    explicit Writer(VersionedArray* a) noexcept : arr_(a) {}
    static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
    VersionedArray* arr_ = nullptr;
    std::size_t last_block_ = kNoBlock;
  };

  Writer writer() noexcept { return Writer(this); }

  /// Unstamped write (sequential / non-speculative contexts).
  void write_raw(std::size_t idx, const T& v) noexcept { data_[idx] = v; }

  /// Snapshot the current contents — the Tb overhead of Section 7.  With a
  /// pool, the copy is chunked across the workers (memcpy per chunk for
  /// trivially-copyable T).  The backup buffer is allocated once and reused
  /// across checkpoints (steady-state strip loops allocate nothing).
  void checkpoint(ThreadPool* pool = nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    txn_checkpoint_begin();
    copy_between(data_.data(), backup_.data(), data_.size(), pool);
    const double ns = ns_since(t0);
    stats_.checkpoint_ns += ns;
    WLP_OBS_COUNT("wlp.undo.checkpoint_ns", static_cast<long>(ns));
  }

  bool has_checkpoint() const noexcept { return has_checkpoint_ || data_.empty(); }

  // ---- fused-transaction hooks (SpecTransaction, txn.hpp) ------------------
  // The transaction runs ONE pool-parallel pass over the concatenated block
  // ranges of all its members, so the per-member pieces of checkpoint() /
  // restore_all() are exposed as span operations: begin resizes the pooled
  // buffer and counts the checkpoint, the span calls do the copies, and the
  // transaction — not the member — publishes the wlp.undo.* metrics once.

  /// Prepare the pooled backup buffer; returns elements to copy.
  std::size_t txn_checkpoint_begin() {
    backup_.resize(data_.size());
    has_checkpoint_ = true;
    ++stats_.checkpoints;
    return data_.size();
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) noexcept {
    copy_span(data_.data(), backup_.data(), b, e);
  }
  void txn_restore_all_span(std::size_t b, std::size_t e) noexcept {
    assert(has_checkpoint());
    copy_span(backup_.data(), data_.data(), b, e);
  }

  /// Restore every overshot stamp in [span_b, span_e) against the pooled
  /// backup — the per-span piece of the fused undo pass, public so a
  /// SpecTransaction can dispatch one shared-index span walk to every
  /// member.  The restore strategy is the payload-size choice documented on
  /// kCoalesceRuns.  Returns locations restored.
  long restore_span(std::size_t span_b, std::size_t span_e,
                    std::uint64_t threshold) noexcept {
    assert(has_checkpoint());
    const std::atomic<std::uint64_t>* sp = index_->stamps();
    long undone = 0;
    if constexpr (kCoalesceRuns) {
      // Copy-dominated payloads: two-phase scan — skip valid stamps, then
      // swallow the whole overshot run and restore it with one batched
      // copy.
      long runs = 0;
      std::size_t i = span_b;
      while (i < span_e) {
        while (i < span_e && sp[i].load(std::memory_order_relaxed) < threshold)
          ++i;
        if (i == span_e) break;
        const std::size_t run_begin = i;
        while (i < span_e && sp[i].load(std::memory_order_relaxed) >= threshold)
          ++i;
        restore_run(run_begin, i);
        undone += static_cast<long>(i - run_begin);
        ++runs;
      }
      if (runs != 0) runs_coalesced_.fetch_add(runs, std::memory_order_relaxed);
    } else {
      // Scan-dominated payloads: single-branch scan with the restore
      // interleaved, keeping the stamp, data and backup streams
      // overlapped (the two-phase variant measures ~0.9x of this).
      T* dp = data_.data();
      const T* bp = backup_.data();
      for (std::size_t i = span_b; i < span_e; ++i)
        if (sp[i].load(std::memory_order_relaxed) >= threshold) {
          dp[i] = bp[i];
          ++undone;
        }
    }
    return undone;
  }

  /// Restore every location written by an iteration >= trip: one fused
  /// parallel pass that scans only current-epoch summary words, visits only
  /// their dirty blocks, and restores each contiguous run of overshot
  /// stamps with a single block copy.  Returns locations restored.
  long undo_beyond(long trip, ThreadPool* pool = nullptr) {
    assert(has_checkpoint());
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t threshold = index_->threshold(trip);
    const long nwords = static_cast<long>(index_->words());
    // Metrics publish once per pass from counter deltas; per-word obs calls
    // would dominate small cache-resident passes.
    [[maybe_unused]] const long blocks_before =
        blocks_dirty_.load(std::memory_order_relaxed);
    [[maybe_unused]] const long runs_before =
        runs_coalesced_.load(std::memory_order_relaxed);
    // Workers claim chunks of summary words (32K elements each) so span
    // merging still happens across word boundaries within a chunk while
    // guided self-scheduling balances skew between chunks.
    constexpr long kChunkWords = 16;
    const long nchunks = (nwords + kChunkWords - 1) / kChunkWords;
    long undone;
    if (pool != nullptr && nchunks > 1) {
      undone = parallel_sum<long>(*pool, 0, nchunks, [&](long c) {
        const std::size_t b = static_cast<std::size_t>(c) * kChunkWords;
        const std::size_t e =
            std::min(b + kChunkWords, static_cast<std::size_t>(nwords));
        return undo_words(b, e, threshold);
      });
    } else {
      undone = undo_words(0, static_cast<std::size_t>(nwords), threshold);
    }
    const double ns = ns_since(t0);
    stats_.restore_ns += ns;
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    WLP_OBS_COUNT("wlp.undo.blocks_dirty",
                  blocks_dirty_.load(std::memory_order_relaxed) - blocks_before);
    WLP_OBS_COUNT("wlp.undo.runs_coalesced",
                  runs_coalesced_.load(std::memory_order_relaxed) - runs_before);
    return undone;
  }

  /// Restore the full checkpoint (failed speculation: re-execute serially).
  void restore_all(ThreadPool* pool = nullptr) {
    assert(has_checkpoint());
    const auto t0 = std::chrono::steady_clock::now();
    copy_between(backup_.data(), data_.data(), data_.size(), pool);
    const double ns = ns_since(t0);
    stats_.restore_ns += ns;
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    clear_stamps();
  }

  /// O(1): bump the epoch; stale stamps and summary words read as clear.
  /// One real sweep per 2^32 resets, when the 32-bit epoch wraps.  On a
  /// shared index only the clearer member bumps (the siblings' calls are
  /// no-ops), so a transaction resetting k members advances the clock once.
  void clear_stamps() noexcept {
    if (!clearer_) return;
    index_->clear();
    WLP_OBS_COUNT("wlp.undo.epoch_resets", 1);
  }

  /// Commit: drop the checkpoint.  The buffer is KEPT (pooled) so the next
  /// strip's checkpoint() allocates nothing; memory_bytes() still counts it.
  void discard_checkpoint() noexcept { has_checkpoint_ = false; }

  long stamp(std::size_t idx) const noexcept {
    return index_->stamp_iter(idx);
  }

  /// The stamp/dirty index this array writes through — shared with siblings
  /// when the array was constructed over an existing index.  The
  /// SpecTransaction groups members by this pointer to walk each shared
  /// summary exactly once per retry.
  StampIndex* index() noexcept { return index_.get(); }
  const StampIndex* index() const noexcept { return index_.get(); }
  const std::shared_ptr<StampIndex>& shared_index() const noexcept {
    return index_;
  }

  /// Bytes of state this array pins: data + pooled backup + stamps + dirty
  /// summary — the paper's 3x note, measured.  This is what the Section 8
  /// sliding-window memory budget controller charges for a dense target.
  /// On a shared index only the clearer charges the index bytes, so summing
  /// members never counts the shared words twice.
  std::size_t memory_bytes() const noexcept {
    return data_.capacity() * sizeof(T) + backup_.capacity() * sizeof(T) +
           (clearer_ ? index_->memory_bytes() : 0);
  }

  /// Blocks written since the last clear_stamps(): the stamp index's
  /// summary-word popcount — O(n / 2048), no second sweep.  On a shared
  /// index this counts the whole group's writes (one summary); the verdict
  /// signature wants exactly that fused density.
  long dirty_block_count() const noexcept {
    return index_->dirty_block_count();
  }

  /// Bytes the pooled dense backup retains on its own (allocated once,
  /// reused across checkpoints).  An AdaptiveSpecArray on a HASH retry
  /// charges only this slice of the dense side: the data array and stamps
  /// are not speculative state on a hash retry, but a backup buffer
  /// allocated by an earlier dense retry stays held.
  std::size_t backup_bytes() const noexcept {
    return backup_.capacity() * sizeof(T);
  }

  /// Overwrite one pooled-backup element.  The AdaptiveSpecArray mid-run
  /// hash->dense upgrade rebuilds the backup's pre-loop view with a bulk
  /// copy of the current data followed by this patch for every location the
  /// hash side saved first (those data elements already hold speculative
  /// values).
  void patch_backup(std::size_t idx, const T& v) noexcept {
    assert(has_checkpoint());
    backup_[idx] = v;
  }

  UndoStats stats() const noexcept {
    UndoStats s = stats_;
    s.resets = index_->resets();
    s.sweeps = index_->sweeps();
    s.blocks_dirty = blocks_dirty_.load(std::memory_order_relaxed);
    s.runs_coalesced = runs_coalesced_.load(std::memory_order_relaxed);
    return s;
  }

  /// Test hook: jump the epoch close to the 32-bit wrap so a test can force
  /// the once-per-2^32 sweep without 4G resets.  On a shared index this
  /// affects every aliasing member (one clock).
  void set_epoch_for_test(std::uint32_t e) noexcept {
    // Drop every stamp made under the old epoch first.
    index_->jump_epoch(e);
  }

  /// Escape hatch for sequential re-execution and verification.
  std::vector<T>& data() noexcept { return data_; }
  const std::vector<T>& data() const noexcept { return data_; }

 private:
  static double ns_since(std::chrono::steady_clock::time_point t0) noexcept {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// One worker's chunk of the fused pass: walk the summary words' merged
  /// spans and restore each against this array's backup.
  long undo_words(std::size_t wlo, std::size_t whi,
                  std::uint64_t threshold) noexcept {
    long undone = 0;
    const long blocks = index_->scan_spans(
        wlo, whi, data_.size(), [&](std::size_t b, std::size_t e) {
          undone += restore_span(b, e, threshold);
        });
    blocks_dirty_.fetch_add(blocks, std::memory_order_relaxed);
    return undone;
  }

  void restore_run(std::size_t b, std::size_t e) noexcept {
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memcpy(data_.data() + b, backup_.data() + b, (e - b) * sizeof(T));
    } else {
      for (std::size_t i = b; i < e; ++i) data_[i] = backup_[i];
    }
  }

  /// Chunked parallel copy src -> dst (n elements; raw pointers because the
  /// backup vector and the data vector use different allocators).  memcpy
  /// per chunk for trivially-copyable T; element assignment otherwise (the
  /// fast path MUST NOT be taken for types with real copy semantics).
  void copy_between(const T* src, T* dst, std::size_t n, ThreadPool* pool) {
    constexpr std::size_t kChunk = 1 << 15;  // elements per claimed chunk
    if (pool == nullptr || n <= kChunk) {
      copy_span(src, dst, 0, n);
      return;
    }
    const long nchunks = static_cast<long>((n + kChunk - 1) / kChunk);
    DoallOptions opts;
    opts.sched = Sched::kStaticBlock;
    doall(
        *pool, 0, nchunks,
        [&](long c, unsigned) {
          const std::size_t b = static_cast<std::size_t>(c) * kChunk;
          copy_span(src, dst, b, std::min(b + kChunk, n));
        },
        opts);
  }

  void copy_span(const T* src, T* dst, std::size_t b, std::size_t e) noexcept {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (e > b) std::memcpy(dst + b, src + b, (e - b) * sizeof(T));
    } else {
      for (std::size_t i = b; i < e; ++i) dst[i] = src[i];
    }
  }

  using Alloc = mem::ArenaAllocator<T>;

  std::vector<T> data_;
  std::vector<T, Alloc> backup_;  ///< arena-pooled (recycled across arrays)
  std::shared_ptr<StampIndex> index_;  ///< private or shared with siblings
  bool clearer_ = false;  ///< this member bumps/charges the (shared) index
  bool has_checkpoint_ = false;
  UndoStats stats_;
  std::atomic<long> blocks_dirty_{0};    ///< updated by parallel undo workers
  std::atomic<long> runs_coalesced_{0};  ///< updated by parallel undo workers
};

}  // namespace wlp
