// Multi-array speculation transactions — ISSUE 8 / DESIGN.md §9.
//
// A loop that speculates over several arrays used to pay k of everything
// per retry: k parallel checkpoint passes, k parallel undo passes (each
// with its own pool dispatch, prefetch warm-up and futex join) and k obs
// publications.  SpecTransaction registers all of a loop's targets into ONE
// transaction that:
//
//   * runs ONE pool-parallel chunked checkpoint over the concatenated
//     element ranges of every member (one dispatch, one join, one
//     bandwidth-bound stream);
//   * runs ONE fused undo pass: the unit space holds p units per dense
//     member on a p-worker pool — each the tail walk of that member's
//     per-worker write logs, restoring one of p disjoint index stripes, so
//     no two threads restore the same element — and every sparse member's
//     slot chunks, so a mixed dense+hash transaction still costs one
//     dispatch.  Workers claim units dynamically: a long dense walk never
//     queues behind a block of empty hash chunks;
//   * treats a lane group (SpecArray<T, K>) as ONE dense member of n
//     indices: a checkpoint chunk copies every lane of its index range, and
//     an undo stripe restores every lane of each overshot entry, counting K
//     element writes per entry;
//   * publishes wlp.undo.{checkpoint_ns,restore_ns} once per transaction
//     operation, not once per target, so multi-array loops stop inflating
//     the histograms k-fold.
//
// These fused passes are the only checkpoint/undo/restore a target has: a
// target reporting neither a dense checkpoint nor sparse slots would get no
// checkpoint at all, so the constructor rejects it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "wlp/core/spec_target.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// One transaction over all arrays speculated by one loop.  Construct it
/// ONCE per driver invocation (the strip driver keeps it across strips) —
/// the constructor precomputes the chunk maps, so begin()/undo_beyond()/
/// restore_all() allocate nothing in steady state.
class SpecTransaction {
 public:
  /// Indices per fused-checkpoint chunk (every lane of a lane group).
  static constexpr std::size_t kCpChunk = 1u << 15;
  /// Hash slots per fused-undo chunk (matches HashBackup::undo_into).
  static constexpr std::size_t kSlotChunk = 1024;

  /// Throws std::invalid_argument for a target that reports neither a dense
  /// checkpoint nor sparse slots: no fused pass could checkpoint or undo it.
  explicit SpecTransaction(std::span<SpecTarget* const> targets)
      : all_(targets.begin(), targets.end()) {
    for (SpecTarget* t : all_) {
      const bool dense = t->txn_dense_size() != SpecTarget::kNoDense;
      const std::size_t slots = t->txn_sparse_slots();
      if (!dense && slots == 0)
        throw std::invalid_argument(
            "SpecTransaction: target reports neither a dense checkpoint nor "
            "sparse slots");
      if (dense) fused_.push_back(t);
      if (slots != 0) sparse_.push_back(SparseEntry{t, slots});
    }
    // Checkpoint chunk map: one contiguous range of chunk ids per dense
    // member (restore_all reuses the same map for the backup->data copies).
    cp_prefix_.push_back(0);
    for (SpecTarget* t : fused_) {
      const std::size_t n = t->txn_dense_size();
      cp_prefix_.push_back(cp_prefix_.back() +
                           static_cast<long>((n + kCpChunk - 1) / kCpChunk));
    }
    // Sparse unit map: every sparse member's slot chunks, in one flat space
    // that follows the dense stripes (whose count depends on the pool).
    sparse_prefix_.push_back(0);
    for (const SparseEntry& s : sparse_)
      sparse_prefix_.push_back(
          sparse_prefix_.back() +
          static_cast<long>((s.slots + kSlotChunk - 1) / kSlotChunk));
  }

  SpecTransaction(const SpecTransaction&) = delete;
  SpecTransaction& operator=(const SpecTransaction&) = delete;

  /// Reset every member's marks and take the fused checkpoint: one parallel
  /// pass over all members' element ranges.
  void begin(ThreadPool* pool) {
    for (SpecTarget* t : all_) t->reset_marks();
    const auto t0 = std::chrono::steady_clock::now();
    for (SpecTarget* t : fused_) t->txn_checkpoint_begin();
    const long nchunks = cp_prefix_.back();
    if (pool != nullptr && nchunks > 1) {
      // A static split, one share per vpn, as parallel_reduce splits its
      // range: on a parked pool, self-sized claims would leave most of
      // these few long chunks to the caller.
      const long p = static_cast<long>(pool->size());
      const long blk = (nchunks + p - 1) / p;
      pool->parallel([&](unsigned vpn) {
        const long b = static_cast<long>(vpn) * blk;
        const long e = std::min(b + blk, nchunks);
        for (long c = b; c < e; ++c) checkpoint_chunk(c);
      });
    } else {
      for (long c = 0; c < nchunks; ++c) checkpoint_chunk(c);
    }
    [[maybe_unused]] const double ns = detail::spec_ns_since(t0);
    WLP_OBS_COUNT("wlp.txn.begins", 1);
    WLP_OBS_COUNT("wlp.txn.targets", static_cast<long>(all_.size()));
    WLP_OBS_COUNT("wlp.undo.checkpoint_ns", static_cast<long>(ns));
  }

  /// ONE fused parallel undo pass over every member: the dense members'
  /// index-stripe walks and the sparse members' slot chunks, claimed
  /// dynamically.  Returns the writes taken back (dense: element writes, K
  /// per log entry at or past `trip` of a K-lane member; sparse: recorded
  /// locations).
  long undo_beyond(long trip, ThreadPool* pool) {
    const auto t0 = std::chrono::steady_clock::now();
    const long stripes = pool == nullptr ? 1 : static_cast<long>(pool->size());
    const long dense_units = static_cast<long>(fused_.size()) * stripes;
    auto unit = [&](long u) {
      if (u >= dense_units) return undo_sparse_unit(u - dense_units, trip);
      SpecTarget* m = fused_[static_cast<std::size_t>(u / stripes)];
      const auto n = m->txn_dense_size();
      const auto s = static_cast<std::size_t>(u % stripes);
      const auto k = static_cast<std::size_t>(stripes);
      return m->txn_undo(trip, n * s / k, n * (s + 1) / k);
    };
    const long nunits = dense_units + sparse_prefix_.back();
    long undone = 0;
    if (pool == nullptr || nunits <= 1) {
      for (long u = 0; u < nunits; ++u) undone += unit(u);
    } else {
      PerWorker<long> part(pool->size(), 0);
      doall(*pool, 0, nunits,
            [&](long u, unsigned vpn) { part[vpn] += unit(u); });
      undone = part.reduce(0L, [](long a, long b) { return a + b; });
    }
    [[maybe_unused]] const double ns = detail::spec_ns_since(t0);
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    WLP_OBS_HIST("wlp.txn.undone_writes", undone);
    return undone;
  }

  /// Fused full restore (failed speculation): every dense member's backup
  /// is copied back wholesale — the logs are NOT consulted, because targets
  /// writing below a stamping threshold (strategies.hpp) leave unlogged
  /// speculative writes — and every sparse member restores everything it
  /// recorded, all in one parallel pass.
  void restore_all(ThreadPool* pool) {
    const auto t0 = std::chrono::steady_clock::now();
    const long ncp = cp_prefix_.back();
    // The sparse slot chunks follow the checkpoint chunks; trip = -1
    // restores everything they recorded.
    const long nunits = ncp + sparse_prefix_.back();
    auto run_unit = [&](long u) {
      if (u < ncp)
        restore_chunk(u);
      else
        undo_sparse_unit(u - ncp, -1);
    };
    if (pool != nullptr && nunits > 1) {
      doall(*pool, 0, nunits, [&](long u, unsigned) { run_unit(u); });
    } else {
      for (long u = 0; u < nunits; ++u) run_unit(u);
    }
    // Every member (fused AND sparse) drops its spent undo state.
    for (SpecTarget* t : all_) t->txn_restore_all_done();
    [[maybe_unused]] const double ns = detail::spec_ns_since(t0);
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    WLP_OBS_COUNT("wlp.txn.restore_all", 1);
  }

  /// Commit: drop every member's backup state (strip drivers, on a strip
  /// that ran to its end with no overshoot).
  void discard() {
    for (SpecTarget* t : all_) t->discard();
  }

  /// Bytes pinned by every member: safe to hand to the sliding-window
  /// budget controller as-is.
  std::size_t memory_bytes() const {
    std::size_t b = 0;
    for (const SpecTarget* t : all_) b += t->memory_bytes();
    return b;
  }

  bool overflowed() const {
    for (const SpecTarget* t : all_)
      if (t->overflowed()) return true;
    return false;
  }

  long marks() const {
    long m = 0;
    for (const SpecTarget* t : all_) m += t->marks();
    return m;
  }

  /// Shape introspection (tests and the microbench assert on these).
  std::size_t targets() const noexcept { return all_.size(); }
  std::size_t fused_targets() const noexcept { return fused_.size(); }

 private:
  struct SparseEntry {
    SpecTarget* target;
    std::size_t slots;
  };

  /// Map a flat chunk id to (member, element range) and copy live->backup.
  void checkpoint_chunk(long c) {
    const std::size_t m = locate(cp_prefix_, c);
    const std::size_t b =
        static_cast<std::size_t>(c - cp_prefix_[m]) * kCpChunk;
    const std::size_t n = fused_[m]->txn_dense_size();
    fused_[m]->txn_checkpoint_span(b, std::min(b + kCpChunk, n));
  }

  /// Same map, backup->data (fused full restore).
  void restore_chunk(long c) {
    const std::size_t m = locate(cp_prefix_, c);
    const std::size_t b =
        static_cast<std::size_t>(c - cp_prefix_[m]) * kCpChunk;
    const std::size_t n = fused_[m]->txn_dense_size();
    fused_[m]->txn_restore_all_span(b, std::min(b + kCpChunk, n));
  }

  /// Sparse unit `u`: one chunk of one sparse member's slot table.
  long undo_sparse_unit(long u, long trip) {
    const std::size_t r = locate(sparse_prefix_, u);
    const SparseEntry& s = sparse_[r];
    const std::size_t lo =
        static_cast<std::size_t>(u - sparse_prefix_[r]) * kSlotChunk;
    return s.target->txn_undo_slots(trip, lo,
                                    std::min(lo + kSlotChunk, s.slots));
  }

  /// Region of a flat id in a prefix-sum map (regions are few: one per
  /// member, so a linear scan beats a binary search in practice).
  static std::size_t locate(const std::vector<long>& prefix, long id) {
    std::size_t r = 0;
    while (prefix[r + 1] <= id) ++r;
    return r;
  }

  std::vector<SpecTarget*> all_;     ///< registration order
  std::vector<SpecTarget*> fused_;   ///< members with a dense checkpoint
  std::vector<SparseEntry> sparse_;  ///< members with hash-slot chunks
  std::vector<long> cp_prefix_;      ///< chunk-id prefix per dense member
  std::vector<long> sparse_prefix_;  ///< slot-chunk-id prefix per sparse member
};

}  // namespace wlp
