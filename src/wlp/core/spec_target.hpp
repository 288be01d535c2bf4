// The type-erased interface over one array participating in a speculation —
// split out of speculative.hpp so the SpecRound (spec_round.hpp) can fuse
// checkpoint/undo work across targets without an include cycle with the
// speculative drivers.
//
// Checkpoint, undo and full restore exist only as the txn_* hooks: pieces a
// SpecRound stitches into ONE pool-parallel pass over all its targets
// instead of k sequential parallel passes (rollback is bandwidth-bound in
// one stream, not latency-bound in k).  A target must report a dense
// checkpoint, sparse slots, or both; the round rejects one that reports
// neither.
#pragma once

#include <cstddef>

#include "wlp/core/shadow.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp {

/// Type-erased interface over one array participating in a speculation.
class SpecTarget {
 public:
  virtual ~SpecTarget() = default;

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

  // ---- fused-pass hooks (SpecRound, spec_round.hpp) ------------------------

  /// txn_dense_size() of a target without a dense checkpoint.
  static constexpr std::size_t kNoDense = static_cast<std::size_t>(-1);
  /// Elements of this target's dense checkpoint, or kNoDense for a target
  /// without one (it must then report sparse slots below).
  virtual std::size_t txn_dense_size() const { return kNoDense; }
  /// Prepare for a fused checkpoint (resize the pooled backup, count the
  /// checkpoint) before the round's single parallel pass copies
  /// [0, txn_dense_size()) through txn_checkpoint_span.
  virtual void txn_checkpoint_begin() {}
  /// Copy live elements [b, e) into the backup (one chunk of the fused
  /// checkpoint pass).
  virtual void txn_checkpoint_span(std::size_t /*b*/, std::size_t /*e*/) {}
  /// One dense undo unit: walk this target's per-worker write logs from
  /// their tails, restoring every write by an iteration >= trip whose index
  /// lies in [lo, hi) from the backup.  Units over disjoint ranges run
  /// concurrently.  Returns the element writes taken back: a target with K
  /// lanes restores, and counts, K elements per log entry.
  virtual long txn_undo(long /*trip*/, std::size_t /*lo*/, std::size_t /*hi*/) {
    return 0;
  }
  /// Full-restore copy of [b, e) from the backup — failed speculation.
  /// Unlike txn_undo this must not consult the logs: targets whose bodies
  /// write below a stamping threshold (strategies.hpp) leave UNLOGGED
  /// speculative writes that only a full copy rolls back.
  virtual void txn_restore_all_span(std::size_t /*b*/, std::size_t /*e*/) {}
  /// Called once per target after the fused full restore completes (clear
  /// the logs so the next undo pass sees none of the restored writes).
  virtual void txn_restore_all_done() {}
  /// Sparse targets: number of backup slots the fused undo pass must scan
  /// (0 = not sparse).  The round partitions [0, slots) into chunks and
  /// calls txn_undo_slots for each.
  virtual std::size_t txn_sparse_slots() const { return 0; }
  /// Undo every slot in [lo, hi) whose writer iteration is >= trip
  /// (trip < 0 = restore all saved values: the sparse side of a fused full
  /// restore).  Returns locations restored.
  virtual long txn_undo_slots(long /*trip*/, std::size_t /*lo*/,
                              std::size_t /*hi*/) {
    return 0;
  }
};

}  // namespace wlp
