// A SpecTarget backed by a hash-table backup instead of a full checkpoint —
// Section 4's alternative for sparse access patterns, plugged into the same
// speculative drivers as SpecArray.
//
// The shared array is NOT copied: the backup records, on first write, the
// pre-loop value of each touched location.  Backup memory is therefore
// proportional to the touched set, which is the whole point ("less memory
// would be needed in this case since only the elements of the array
// accessed in the loop would be inserted into the hash table").  The
// backup's slot table is an arena-backed open-addressing array (see
// sparse_backup.hpp): a strip driver that retires one SparseSpecArray and
// builds the next recycles the same arena block, so the steady state stays
// allocation-free and every byte is accounted in the wlp.mem budget.
//
// The PD test's marks are optional; when enabled they are per-worker logs
// proportional to the accesses made, like the backup (shadow.hpp).
#pragma once

#include <vector>

#include "wlp/core/sparse_backup.hpp"
#include "wlp/core/speculative.hpp"

namespace wlp {

template <class T>
class SparseSpecArray final : public SpecTarget {
 public:
  /// `shared` stays owned by the caller and is mutated in place.
  /// `expected_writes` sizes the backup (distinct locations, ~2x headroom
  /// is added internally by HashBackup's power-of-two rounding).
  SparseSpecArray(std::vector<T>& shared, unsigned workers,
                  std::size_t expected_writes, bool run_pd_test)
      : data_(shared),
        backup_(expected_writes * 2),
        pd_(shared.size(), workers, run_pd_test) {}

  // ---- body-side API -----------------------------------------------------

  void begin_iteration(unsigned vpn, long iter) {
    pd_.begin_iteration(vpn, iter);
  }

  T get(unsigned vpn, std::size_t idx) {
    pd_.on_read(vpn, idx);
    return data_[idx];
  }

  void set(unsigned vpn, long iter, std::size_t idx, const T& v) {
    pd_.on_write(vpn, idx);
    // Save-before-write; when the backup is full the data write is SKIPPED,
    // so every mutation stays recorded and a full restore can still
    // reconstruct the exact pre-loop state.  The driver sees overflowed()
    // after the run and falls back to sequential re-execution.
    if (!backup_.record(iter, idx, data_[idx])) return;
    data_[idx] = v;
  }

  std::vector<T>& data() noexcept { return data_; }

  std::size_t backup_entries() const noexcept { return backup_.entries(); }
  std::size_t backup_bytes() const noexcept { return backup_.memory_bytes(); }

  // ---- SpecTarget ----------------------------------------------------------

  bool overflowed() const override { return backup_.overflowed(); }
  std::size_t memory_bytes() const override { return backup_.memory_bytes(); }
  bool shadowed() const override { return pd_.on(); }
  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pd_.analyze(pool, trip);
  }
  void reset_marks() override {
    pd_.reset();
    backup_.clear();
  }
  long marks() const override { return pd_.marks(); }
  void discard() override { backup_.clear(); }

  // ---- fused-transaction hooks --------------------------------------------
  // No dense checkpoint (the backup saves on first touch); the fused undo
  // pass scans this target's slot table in chunks alongside the dense
  // members' log walks (one pool dispatch for the whole transaction).

  std::size_t txn_sparse_slots() const override { return backup_.capacity(); }
  long txn_undo_slots(long trip, std::size_t lo, std::size_t hi) override {
    return backup_.undo_slots(data_, trip, lo, hi);
  }
  /// After a fused full restore the recorded set is spent: drop it so the
  /// transaction reads as empty, matching the dense members (whose logs
  /// the restore clears).  The epoch bump keeps this O(1).
  void txn_restore_all_done() override { backup_.clear(); }

 private:
  std::vector<T>& data_;
  HashBackup<T> backup_;
  PDMarks pd_;
};

}  // namespace wlp
