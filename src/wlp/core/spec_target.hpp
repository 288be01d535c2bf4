// The type-erased interface over one array participating in a speculation —
// split out of speculative.hpp so the SpecTransaction layer (txn.hpp) can
// fuse checkpoint/undo work across targets without an include cycle with
// the speculative drivers.
//
// Checkpoint, undo and full restore exist only as the txn_* hooks: pieces a
// SpecTransaction stitches into ONE pool-parallel pass over all its members
// instead of k sequential parallel passes (rollback is bandwidth-bound in
// one stream, not latency-bound in k).  A target must report a dense
// checkpoint, sparse slots, or both; the transaction rejects one that
// reports neither.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>

#include "wlp/core/shadow.hpp"
#include "wlp/core/versioned_array.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {

/// Receives footprint step-change notifications.  The chain is
/// SpecTarget::footprint_changed() -> SpecTransaction -> window controller:
/// the per-claim memory_bytes() poll tracks gradual backup growth, but a
/// backend flip (AdaptiveSpecArray hash -> dense) is a step jump the poll
/// can miss for a claim or more — the hook lets the window clamp on the
/// very next decision.  Implementations are called from pool workers and
/// must be lock-free and noexcept.
class FootprintListener {
 public:
  virtual ~FootprintListener() = default;
  virtual void footprint_changed() noexcept = 0;
};

/// Type-erased interface over one array participating in a speculation.
class SpecTarget {
 public:
  virtual ~SpecTarget() = default;

  /// Notify the registered listener that memory_bytes() just step-changed
  /// (backend flip, bulk adoption of a checkpoint).  Safe to call with no
  /// listener registered; subclasses call this, drivers register.
  void footprint_changed() noexcept {
    FootprintListener* l = footprint_listener_.load(std::memory_order_acquire);
    if (l != nullptr) l->footprint_changed();
  }
  void set_footprint_listener(FootprintListener* l) noexcept {
    footprint_listener_.store(l, std::memory_order_release);
  }
  virtual bool shadowed() const = 0;
  virtual PDVerdict analyze(ThreadPool& pool, long trip) const = 0;
  virtual void reset_marks() = 0;
  /// PD marks recorded since the last reset_marks() (0 if not shadowed).
  virtual long marks() const { return 0; }
  /// Did the backup lose a write since the last reset_marks()?  A sparse
  /// backup that hits capacity latches this instead of throwing from a pool
  /// worker; the drivers treat it exactly like a failed PD test (restore and
  /// re-execute sequentially — the dense path never overflows).
  virtual bool overflowed() const { return false; }
  /// Bytes of state this target pins right now (data + backup + log): the
  /// quantity the Section 8.2 window budget controller charges, replacing
  /// the window's bytes-per-iteration guess.
  virtual std::size_t memory_bytes() const { return 0; }
  /// Commit: the speculation succeeded with no overshoot in this region,
  /// the backup state can be dropped (strip-by-strip drivers use this).
  virtual void discard() = 0;

  // ---- fused-transaction hooks (SpecTransaction, txn.hpp) ------------------

  /// txn_dense_size() of a target without a dense checkpoint.
  static constexpr std::size_t kNoDense = static_cast<std::size_t>(-1);
  /// Elements of this target's dense checkpoint, or kNoDense for a target
  /// without one (it must then report sparse slots below).
  virtual std::size_t txn_dense_size() const { return kNoDense; }
  /// Prepare for a fused checkpoint (resize the pooled backup, count the
  /// checkpoint); returns the element count the transaction's single
  /// parallel pass must copy for this member.  0 = nothing to copy up
  /// front (sparse backups save on first touch).
  virtual std::size_t txn_checkpoint_begin() { return 0; }
  /// Copy live elements [b, e) into the backup (one chunk of the fused
  /// checkpoint pass).
  virtual void txn_checkpoint_span(std::size_t /*b*/, std::size_t /*e*/) {}
  /// One dense undo unit: walk this member's per-worker write logs from
  /// their tails, restoring every write by an iteration >= trip whose index
  /// lies in [lo, hi) from the backup.  Units over disjoint ranges run
  /// concurrently.  Returns the log entries taken back.
  virtual long txn_undo(long /*trip*/, std::size_t /*lo*/, std::size_t /*hi*/) {
    return 0;
  }
  /// Full-restore copy of [b, e) from the backup — failed speculation.
  /// Unlike txn_undo this must not consult the logs: targets whose bodies
  /// write below a stamping threshold (strategies.hpp) leave UNLOGGED
  /// speculative writes that only a full copy rolls back.
  virtual void txn_restore_all_span(std::size_t /*b*/, std::size_t /*e*/) {}
  /// Called once per member after the fused full restore completes (clear
  /// the logs so the next undo pass sees none of the restored writes).
  virtual void txn_restore_all_done() {}
  /// Sparse members: number of backup slots the fused undo pass must scan
  /// (0 = not sparse).  The transaction partitions [0, slots) into chunks
  /// and calls txn_undo_slots for each.
  virtual std::size_t txn_sparse_slots() const { return 0; }
  /// Undo every slot in [lo, hi) whose writer iteration is >= trip
  /// (trip < 0 = restore all saved values: the sparse side of a fused full
  /// restore).  Returns locations restored.
  virtual long txn_undo_slots(long /*trip*/, std::size_t /*lo*/,
                              std::size_t /*hi*/) {
    return 0;
  }

 private:
  std::atomic<FootprintListener*> footprint_listener_{nullptr};
};

namespace detail {
inline double spec_ns_since(std::chrono::steady_clock::time_point t0) noexcept {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace detail

}  // namespace wlp
