// One speculation round: the Section 5 protocol every checkpointing driver
// shares, and the only place those drivers read the clock, open protocol
// trace spans or publish wlp.spec.* / wlp.undo.* / wlp.pd.marks.
//
//   begin     reset marks + fused checkpoint                         Tb
//   run       exception boundary around the driver's parallel section:
//             an exception is a failed speculation (Section 5.1)
//   validate  marks, peak footprint, backup overflow, then the
//             trip-filtered PD test                            Td's analysis
//   commit    fused undo of the overshoot through the write logs     Ta
//   rollback  fused full restore + sequential re-execution, which
//             redefines the trip and so the overshoot                Ta
//
// Every step writes into the caller's ExecReport by one rule: times, marks
// and undone writes accumulate, the peak is a max, and the flags latch, so
// a driver that runs one round per strip reports the sum.  The one field
// a step sets is the overshoot: rollback recounts it as started - trip
// against the sequential trip, from the started count the driver has
// reported so far.  One clock pair per timed step feeds both the report
// (checkpoint_ns, undo_ns) and the wlp.undo.{checkpoint_ns,restore_ns}
// counters.  DESIGN.md §12 lists the schedule each driver keeps around
// these steps.
//
// Fused passes (DESIGN.md §9).  A loop that speculates over k arrays pays
// one pass per step, not k: the checkpoint, the undo and the full restore
// each run ONE pool launch over every target of the round.
//   * The checkpoint splits the concatenated index ranges of the dense
//     targets into chunks of kCpChunk indices (every lane of a lane group)
//     and hands each worker one static share of them: on a parked pool,
//     self-sized claims would leave most of these few long chunks to the
//     caller.
//   * The undo claims its units dynamically: p index stripes per dense
//     target on a p-worker pool — each the tail walk of that target's
//     per-worker write logs, restoring only indices in its stripe, so no
//     two threads restore the same element — and every sparse target's
//     slot chunks (kSlotChunk slots), so a long dense walk never queues
//     behind a block of empty hash chunks.
//   * The full restore copies every dense backup back whole, chunk by
//     chunk, and restores every sparse target's recorded slots, in one
//     launch.
// The unit maps are built once, in the constructor, so the steps allocate
// nothing in steady state.  A pass of at most one unit runs on the caller;
// a one-worker pool runs a launch inline.
//
// These fused passes are the only checkpoint/undo/restore a target has: a
// target reporting neither a dense checkpoint nor sparse slots would get no
// checkpoint at all, so the constructor rejects it.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

class SpecRound {
 public:
  /// Hash slots per fused-undo chunk.
  static constexpr std::size_t kSlotChunk = 1024;

  /// `targets` must outlive the round.  Throws std::invalid_argument for a
  /// target that reports neither a dense checkpoint nor sparse slots.
  SpecRound(ThreadPool& pool, std::span<SpecTarget* const> targets,
            ExecReport& report)
      : pool_(pool), targets_(targets), r_(report) {
    cp_prefix_.push_back(0);
    sparse_prefix_.push_back(0);
    for (SpecTarget* t : targets_) {
      const std::size_t n = t->txn_dense_size();
      const std::size_t slots = t->txn_sparse_slots();
      if (n == SpecTarget::kNoDense && slots == 0)
        throw std::invalid_argument(
            "SpecRound: target reports neither a dense checkpoint nor "
            "sparse slots");
      // One contiguous range of chunk ids per dense target (the full
      // restore reuses it), and every sparse target's slot chunks in one
      // flat space that follows the dense stripes.
      if (n != SpecTarget::kNoDense) {
        fused_.push_back(t);
        cp_prefix_.push_back(cp_prefix_.back() +
                             static_cast<long>((n + kCpChunk - 1) / kCpChunk));
      }
      if (slots != 0) {
        sparse_.push_back(SparseEntry{t, slots});
        sparse_prefix_.push_back(
            sparse_prefix_.back() +
            static_cast<long>((slots + kSlotChunk - 1) / kSlotChunk));
      }
    }
    r_.used_checkpoint = true;
    r_.used_stamps = true;
  }

  SpecRound(const SpecRound&) = delete;
  SpecRound& operator=(const SpecRound&) = delete;

  void begin() {
    WLP_TRACE_SCOPE("spec.checkpoint", targets_.size(), 0);
    WLP_OBS_COUNT("wlp.spec.rounds", 1);
    threw_ = false;
    const auto t0 = std::chrono::steady_clock::now();
    for (SpecTarget* t : targets_) t->reset_marks();
    for (SpecTarget* t : fused_) t->txn_checkpoint_begin();
    const long nchunks = cp_prefix_.back();
    if (nchunks <= 1) {
      for (long c = 0; c < nchunks; ++c)
        dense_chunk(c, &SpecTarget::txn_checkpoint_span);
    } else {
      const long p = static_cast<long>(pool_.size());
      const long blk = (nchunks + p - 1) / p;
      pool_.parallel([&](unsigned vpn) {
        const long b = static_cast<long>(vpn) * blk;
        const long e = std::min(b + blk, nchunks);
        for (long c = b; c < e; ++c)
          dense_chunk(c, &SpecTarget::txn_checkpoint_span);
      });
    }
    const double ns = ns_since(t0);
    r_.checkpoint_ns += ns;
    WLP_OBS_COUNT("wlp.undo.checkpoint_ns", static_cast<long>(ns));
  }

  /// Runs `parallel()`; an exception it throws dooms the round.
  template <class F>
  void run(F&& parallel) {
    try {
      std::forward<F>(parallel)();
    } catch (...) {
      threw_ = true;
      WLP_OBS_COUNT("wlp.spec.exceptions", 1);
    }
  }

  /// True when the round's parallel execution up to `trip` is valid and
  /// may be committed.
  bool validate(long trip) {
    // Marks are log lengths: fold them here, off the hot path.
    long marks = 0;
    for (const SpecTarget* t : targets_) marks += t->marks();
    r_.shadow_marks += marks;
    WLP_OBS_COUNT("wlp.pd.marks", marks);
    // Backups are at their fullest right after the parallel section.
    r_.peak_spec_bytes = std::max(r_.peak_spec_bytes, memory_bytes());
    // A sparse backup that hit capacity dropped writes: the parallel
    // execution is incomplete whatever the PD test would say (the backup
    // still restores the exact pre-round state, because overflowing
    // writers skipped their data store too).
    const bool overflowed =
        std::any_of(targets_.begin(), targets_.end(),
                    [](const SpecTarget* t) { return t->overflowed(); });
    if (overflowed) {
      r_.backup_overflow = true;
      WLP_OBS_COUNT("wlp.spec.backup_overflow", 1);
      return false;
    }
    if (threw_) return false;

    WLP_TRACE_SCOPE("pd.analyze", trip, 0);
    bool tested = false;
    bool passed = true;
    for (SpecTarget* t : targets_) {
      if (!t->shadowed()) continue;
      tested = true;
      passed = passed && t->analyze(pool_, trip).fully_parallel();
    }
    if (tested) {
      r_.pd_tested = true;
      r_.pd_passed = r_.pd_passed && passed;
      if (passed)
        WLP_OBS_COUNT("wlp.spec.pd_pass", 1);
      else
        WLP_OBS_COUNT("wlp.spec.pd_fail", 1);
    }
    return passed;
  }

  /// Keep the valid iterations: ONE fused undo pass takes back every write
  /// logged at or past `trip` (dense: K element writes per log entry of a
  /// K-lane target; sparse: recorded locations).
  void commit(long trip) {
    WLP_TRACE_SCOPE_NAMED(undo_scope, "undo", trip, 0);
    const auto t0 = std::chrono::steady_clock::now();
    const long stripes = static_cast<long>(pool_.size());
    const long dense_units = static_cast<long>(fused_.size()) * stripes;
    auto unit = [&](long u) {
      if (u >= dense_units) return undo_sparse_unit(u - dense_units, trip);
      SpecTarget* t = fused_[static_cast<std::size_t>(u / stripes)];
      const auto n = t->txn_dense_size();
      const auto s = static_cast<std::size_t>(u % stripes);
      const auto k = static_cast<std::size_t>(stripes);
      return t->txn_undo(trip, n * s / k, n * (s + 1) / k);
    };
    const long undone = run_units(dense_units + sparse_prefix_.back(), unit);
    const double ns = ns_since(t0);
    r_.undo_ns += ns;
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    r_.undone_writes += undone;
    undo_scope.args(static_cast<std::uint64_t>(trip),
                    static_cast<std::uint64_t>(undone));
    WLP_OBS_HIST("wlp.spec.overshoot", r_.overshot);
    WLP_OBS_HIST("wlp.spec.undo_writes", undone);
  }

  /// Misspeculation: restore the full checkpoint — every dense backup
  /// copied back whole, never a log-filtered undo, since writes below a
  /// stamping threshold (strategies.hpp) are not logged, and every sparse
  /// target's recorded slots — and return `run_sequential() -> trip`,
  /// which re-executes against the raw data.  The rerun redefines the
  /// trip, so the overshoot is recounted against it: every body the
  /// report started at or past that trip was rolled back.
  template <class SeqRun>
  long rollback(SeqRun&& run_sequential) {
    WLP_TRACE_SCOPE("spec.seq_reexec", 0, 0);
    WLP_OBS_COUNT("wlp.spec.seq_reexec", 1);
    const auto t0 = std::chrono::steady_clock::now();
    // The sparse slot chunks follow the checkpoint chunks; trip = -1
    // restores everything they recorded.
    const long ncp = cp_prefix_.back();
    run_units(ncp + sparse_prefix_.back(), [&](long u) {
      if (u >= ncp) return undo_sparse_unit(u - ncp, -1);
      dense_chunk(u, &SpecTarget::txn_restore_all_span);
      return 0L;
    });
    // Every target drops its spent undo state.
    for (SpecTarget* t : targets_) t->txn_restore_all_done();
    const double ns = ns_since(t0);
    r_.undo_ns += ns;
    WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(ns));
    r_.reexecuted_sequentially = true;
    const long trip = std::forward<SeqRun>(run_sequential)();
    r_.overshot = std::max(0L, r_.started - trip);
    assert(trip >= 0);
    assert(r_.overshot <= r_.started);
    return trip;
  }

  /// Commit with no overshoot (strip drivers): drop every target's backup
  /// state without an undo pass.
  void discard() {
    for (SpecTarget* t : targets_) t->discard();
  }

  /// Bytes every target pins right now: safe to poll while workers write,
  /// so the sliding window's budget controller reads it at every claim.
  std::size_t memory_bytes() const {
    std::size_t b = 0;
    for (const SpecTarget* t : targets_) b += t->memory_bytes();
    return b;
  }

 private:
  /// Indices per fused-checkpoint chunk (every lane of a lane group).
  static constexpr std::size_t kCpChunk = 1u << 15;

  struct SparseEntry {
    SpecTarget* target;
    std::size_t slots;
  };

  static double ns_since(std::chrono::steady_clock::time_point t0) noexcept {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// Runs `unit(u)` for every u in [0, n) and returns the sum of what the
  /// units return: on the caller for at most one unit, otherwise claimed
  /// dynamically on the pool.
  template <class F>
  long run_units(long n, F&& unit) {
    long sum = 0;
    if (n <= 1) {
      for (long u = 0; u < n; ++u) sum += unit(u);
      return sum;
    }
    PerWorker<long> part(pool_.size(), 0);
    doall(pool_, 0, n, [&](long u, unsigned vpn) { part[vpn] += unit(u); });
    return part.reduce(sum, [](long a, long b) { return a + b; });
  }

  /// Map flat checkpoint chunk `c` to its dense target and index range, and
  /// run that target's span hook on it (checkpoint or full restore).
  void dense_chunk(long c, void (SpecTarget::*span)(std::size_t, std::size_t)) {
    const std::size_t m = locate(cp_prefix_, c);
    const std::size_t b =
        static_cast<std::size_t>(c - cp_prefix_[m]) * kCpChunk;
    const std::size_t n = fused_[m]->txn_dense_size();
    (fused_[m]->*span)(b, std::min(b + kCpChunk, n));
  }

  /// Sparse unit `u`: one chunk of one sparse target's slot table.
  long undo_sparse_unit(long u, long trip) {
    const std::size_t r = locate(sparse_prefix_, u);
    const SparseEntry& s = sparse_[r];
    const std::size_t lo =
        static_cast<std::size_t>(u - sparse_prefix_[r]) * kSlotChunk;
    return s.target->txn_undo_slots(trip, lo,
                                    std::min(lo + kSlotChunk, s.slots));
  }

  /// Region of a flat id in a prefix-sum map (regions are few: one per
  /// target, so a linear scan beats a binary search in practice).
  static std::size_t locate(const std::vector<long>& prefix, long id) {
    std::size_t r = 0;
    while (prefix[r + 1] <= id) ++r;
    return r;
  }

  ThreadPool& pool_;
  std::span<SpecTarget* const> targets_;
  ExecReport& r_;
  std::vector<SpecTarget*> fused_;   ///< targets with a dense checkpoint
  std::vector<SparseEntry> sparse_;  ///< targets with hash-slot chunks
  std::vector<long> cp_prefix_;      ///< chunk-id prefix per dense target
  std::vector<long> sparse_prefix_;  ///< slot-chunk-id prefix per sparse target
  bool threw_ = false;
};

}  // namespace wlp
