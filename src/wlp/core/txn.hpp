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
//   * publishes wlp.undo.{checkpoint_ns,restore_ns} once per transaction
//     operation, not once per target, so multi-array loops stop inflating
//     the histograms k-fold.
//
// These fused passes are the only checkpoint/undo/restore a target has: a
// target reporting neither a dense checkpoint nor sparse slots would get no
// checkpoint at all, so the constructor rejects it.
//
// AdaptiveSpecArray is the per-array, per-retry backend picker the ROADMAP
// calls for: it owns BOTH a dense VersionedArray and a HashBackup and
// chooses between them at every reset from the measured touch density of
// the previous retry (cost_model::choose_backup), retiring the static
// dense-vs-sparse plan flag.  A hash overflow permanently bans the hash
// side for that array — without disturbing sibling arrays in the same
// transaction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "wlp/core/cost_model.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/core/sparse_backup.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// One transaction over all arrays speculated by one loop.  Construct it
/// ONCE per driver invocation (the strip driver keeps it across strips) —
/// the constructor precomputes the chunk maps, so begin()/undo_beyond()/
/// restore_all() allocate nothing in steady state.
class SpecTransaction : public FootprintListener {
 public:
  /// Elements per fused-checkpoint chunk.
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
    // Footprint chain: every member reports its step jumps (backend flips)
    // to the transaction, which forwards ONE fused event to whoever
    // registered via set_footprint_listener (the window controller).
    for (SpecTarget* t : all_) t->set_footprint_listener(this);
  }

  ~SpecTransaction() override {
    for (SpecTarget* t : all_) t->set_footprint_listener(nullptr);
  }

  SpecTransaction(const SpecTransaction&) = delete;
  SpecTransaction& operator=(const SpecTransaction&) = delete;

  /// A member's footprint just step-changed: count it and forward the fused
  /// event.  Called from pool workers — lock-free, noexcept.
  void footprint_changed() noexcept override {
    footprint_epochs_.fetch_add(1, std::memory_order_relaxed);
    FootprintListener* l = listener_.load(std::memory_order_acquire);
    if (l != nullptr) l->footprint_changed();
  }

  /// Register the downstream listener (the sliding-window controller); null
  /// detaches.  The transaction stays registered with its members either
  /// way, so the epoch counter below keeps counting.
  void set_footprint_listener(FootprintListener* l) noexcept {
    listener_.store(l, std::memory_order_release);
  }

  /// Step-change notifications received since construction (tests pin the
  /// flip -> transaction -> controller chain on this).
  long footprint_epochs() const noexcept {
    return footprint_epochs_.load(std::memory_order_relaxed);
  }

  /// Reset every member's marks and take the fused checkpoint: one parallel
  /// pass over all members' element ranges.
  void begin(ThreadPool* pool) {
    for (SpecTarget* t : all_) t->reset_marks();
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t cp_elems = 0;
    for (SpecTarget* t : fused_) cp_elems += t->txn_checkpoint_begin();
    // Members with nothing to copy (e.g. an AdaptiveSpecArray on a hash
    // retry) report 0; when EVERY member does, skip the chunk dispatch
    // outright instead of running a pool pass of no-ops.
    const long nchunks = cp_elems == 0 ? 0 : cp_prefix_.back();
    if (pool != nullptr && nchunks > 1) {
      DoallOptions opts;
      opts.sched = Sched::kStaticBlock;
      doall(
          *pool, 0, nchunks,
          [&](long c, unsigned) { checkpoint_chunk(c); }, opts);
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
  /// dynamically.  Returns the writes taken back (dense: log entries at or
  /// past `trip`; sparse: recorded locations).
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
  std::atomic<FootprintListener*> listener_{nullptr};
  std::atomic<long> footprint_epochs_{0};
};

/// A speculation target that picks dense VersionedArray vs sparse
/// HashBackup PER RETRY from measured touch density — the adaptive backend
/// selection ROADMAP's "adaptive backup selection" item calls for.
///
/// The decision (cost_model::choose_backup) runs at every reset_marks()
/// using the write count the workers tallied during the previous retry
/// (the first retry uses the caller's `expected_writes` hint).  A hash
/// overflow latches a permanent ban on the hash side for THIS array only:
/// the next retry runs dense, siblings in the same transaction are
/// untouched.
///
/// Inside a SpecTransaction the target reports both personalities: its
/// dense side joins the fused log walk (a no-op on hash retries — nothing
/// was logged) and its hash slots join the sparse chunks (an empty table on
/// dense retries returns at once).  Whichever side was active holds
/// the retry's writes; the other contributes nothing, so mode flips
/// between retries need no re-registration.
template <class T>
class AdaptiveSpecArray final : public SpecTarget {
 public:
  /// `expected_writes` sizes the hash table (~2x headroom added by its
  /// power-of-two rounding) and seeds the first density decision.
  AdaptiveSpecArray(std::vector<T> init, unsigned workers,
                    std::size_t expected_writes, bool run_pd_test)
      : array_(std::move(init), workers),
        hash_(expected_writes * 2),
        expected_writes_(expected_writes),
        pd_(array_.size(), workers, run_pd_test) {
    touches_.resize(workers);
    decide(expected_writes_);
  }

  // ---- body-side API -----------------------------------------------------

  void begin_iteration(unsigned vpn, long iter) {
    pd_.begin_iteration(vpn, iter);
  }

  T get(unsigned vpn, std::size_t idx) {
    pd_.on_read(vpn, idx);
    return array_.get(idx);
  }

  void set(unsigned vpn, long iter, std::size_t idx, const T& v) {
    pd_.on_write(vpn, idx);
    // Write tally, not distinct locations: an upper bound on the touched
    // set, which is the conservative direction for the density decision
    // (overcounting pushes toward dense, never toward an overflowing
    // hash table).
    touches_[static_cast<std::size_t>(vpn)].value += 1;
    if (mode_ == BackupKind::kHash) {
      // Save-before-write; a full table skips the data write too, so the
      // recorded set still restores the exact pre-loop state.
      if (!hash_.record(iter, idx, array_.get(idx))) return;
      array_.write_raw(idx, v);
    } else {
      array_.write(vpn, iter, idx, v);
    }
  }

  std::vector<T>& data() noexcept { return array_.data(); }
  const std::vector<T>& data() const noexcept { return array_.data(); }

  /// Backend chosen for the CURRENT retry.
  BackupKind backup_kind() const noexcept { return mode_; }

  UndoStats undo_stats() const { return array_.stats(); }

  /// Mid-run upgrade hash -> dense: adopt the dense backend NOW without
  /// losing the hash-recorded undo state.  The dense backup is rebuilt to
  /// the pre-loop view — bulk copy of the current data, then the hash's
  /// saved values grafted over the locations it recorded (their data
  /// elements already hold speculative writes) — so a later undo behaves
  /// as if the retry had two logged backends: pre-flip writes restore
  /// through the hash slots, post-flip writes through the dense logs.
  ///
  /// The caller must be quiescent: no concurrent body may be mid-iteration
  /// (a claim boundary, or a single-worker pool).  This is the step jump in
  /// memory_bytes() the footprint_changed() chain exists for, so the
  /// registered listener is notified before returning.
  void flip_to_dense(ThreadPool* pool = nullptr) {
    if (mode_ != BackupKind::kHash) return;
    const std::size_t n = array_.data().size();
    array_.txn_checkpoint_begin();
    if (pool != nullptr && n > SpecTransaction::kCpChunk) {
      const long nchunks = static_cast<long>(
          (n + SpecTransaction::kCpChunk - 1) / SpecTransaction::kCpChunk);
      doall(*pool, 0, nchunks, [&](long c, unsigned) {
        const std::size_t b =
            static_cast<std::size_t>(c) * SpecTransaction::kCpChunk;
        array_.txn_checkpoint_span(b,
                                   std::min(b + SpecTransaction::kCpChunk, n));
      });
    } else {
      array_.txn_checkpoint_span(0, n);
    }
    hash_.for_each_entry([this](std::size_t idx, const T& saved) {
      array_.patch_backup(idx, saved);
    });
    mode_ = BackupKind::kDense;
    WLP_OBS_COUNT("wlp.txn.backup_flips", 1);
    footprint_changed();
  }

  // ---- SpecTarget ----------------------------------------------------------

  bool shadowed() const override { return pd_.on(); }
  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pd_.analyze(pool, trip);
  }
  void reset_marks() override {
    pd_.reset();
    long touched = 0;
    for (auto& c : touches_) {
      touched += c.value;
      c.value = 0;
    }
    // An overflow means the observed touch set outgrew the table: ban the
    // hash side for good (this array only — siblings decide for
    // themselves).
    if (hash_.overflowed()) hash_banned_ = true;
    decide(ran_once_ ? static_cast<std::size_t>(touched) : expected_writes_);
    ran_once_ = true;
    array_.clear_log();
    hash_.clear();
  }
  long marks() const override { return pd_.marks(); }
  bool overflowed() const override {
    return mode_ == BackupKind::kHash && hash_.overflowed();
  }
  std::size_t memory_bytes() const override {
    // Only the LIVE backend's state is pinned by this retry — summing both
    // sides charged the window budget ~3n dense bytes on a hash retry whose
    // true footprint was a handful of slots, collapsing the window to its
    // minimum for no reason.  The idle side still charges what it actually
    // holds: on a dense retry the hash table is empty (0 bytes) except
    // right after a mid-run flip, when its recorded pre-flip entries stay
    // pinned until the next clear; on a hash retry the dense data/logs
    // are not speculative state, but a pooled backup buffer allocated by an
    // earlier dense retry remains held.
    if (mode_ == BackupKind::kDense)
      return array_.memory_bytes() + hash_.memory_bytes();
    return hash_.memory_bytes() + array_.backup_bytes();
  }
  void discard() override {
    array_.discard_checkpoint();
    hash_.clear();
  }

  // ---- verdict-cache hooks -------------------------------------------------

  void enable_access_signatures(bool on) override {
    pd_.enable_signatures(on);
  }
  bool access_summary(PDAccessSummary* out) const override {
    return pd_.access_summary(out);
  }
  long dirty_block_count() const override {
    // Whichever backend held this retry's writes knows the density; the
    // idle side reports 0 (empty table / empty logs), so the sum is the
    // live count even right after a mid-run flip.
    return array_.dirty_block_count() + hash_.dirty_block_count();
  }

  // ---- fused-transaction hooks --------------------------------------------
  // Both personalities are always reported (see the class comment); on a
  // hash retry the dense hooks do nothing, since the dense backup holds no
  // checkpoint of this retry.  After a mid-run flip_to_dense the pre-flip
  // writes live only in the hash slots, which the fused undo scans on every
  // retry (an empty table on plain dense retries).

  std::size_t txn_dense_size() const override { return array_.size(); }
  std::size_t txn_checkpoint_begin() override {
    return mode_ == BackupKind::kDense ? array_.txn_checkpoint_begin() : 0;
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) override {
    if (mode_ == BackupKind::kDense) array_.txn_checkpoint_span(b, e);
  }
  long txn_undo(long trip, std::size_t lo, std::size_t hi) override {
    return mode_ == BackupKind::kDense ? array_.txn_undo(trip, lo, hi) : 0;
  }
  void txn_restore_all_span(std::size_t b, std::size_t e) override {
    if (mode_ == BackupKind::kDense) array_.txn_restore_all_span(b, e);
  }
  void txn_restore_all_done() override {
    array_.clear_log();
    // The hash side's recorded set is spent too — but the overflow fact
    // must outlive the clear (reset_marks may not run before the next
    // decision reads it), so latch the ban first.
    if (hash_.overflowed()) hash_banned_ = true;
    hash_.clear();
  }
  std::size_t txn_sparse_slots() const override { return hash_.capacity(); }
  long txn_undo_slots(long trip, std::size_t lo, std::size_t hi) override {
    return hash_.undo_slots(array_.data(), trip, lo, hi);
  }

 private:
  void decide(std::size_t touched) {
    const BackupKind before = mode_;
    mode_ = hash_banned_ ? BackupKind::kDense
                         : choose_backup(array_.size(), touched).kind;
    WLP_OBS_COUNT(mode_ == BackupKind::kDense ? "wlp.txn.backup_dense"
                                              : "wlp.txn.backup_hash",
                  1);
    // A backend change is a step jump in memory_bytes() (dense pins
    // data+backup+log where hash pinned live slots): tell the window
    // controller instead of letting the next claim's poll discover it late.
    if (mode_ != before) footprint_changed();
  }

  VersionedArray<T> array_;
  HashBackup<T> hash_;
  std::size_t expected_writes_;
  PDMarks pd_;
  /// Per-worker write tallies (cache-line padded: bumped on every set()).
  std::vector<Padded<long>> touches_;
  BackupKind mode_ = BackupKind::kDense;
  bool hash_banned_ = false;
  bool ran_once_ = false;
};

}  // namespace wlp
