// Speculative parallel execution of WHILE loops with unknown cross-iteration
// dependences — Section 5, over the checkpoint and write record of
// Section 4.
//
// The compiler (or the user, through this API) cannot prove the remainder
// independent, so the loop runs speculatively as a DOALL with the PD test's
// marks (shadow.hpp) woven into every access.  After the run:
//   * the last valid iteration (trip) is recovered from the QUIT minima,
//   * the PD analysis — filtered by trip, so overshot iterations' marks are
//     ignored — decides whether the parallel execution was valid,
//   * on success, overshot writes are undone via the per-worker write logs,
//   * on failure (or an exception during the run, Section 5.1), all state is
//     restored from the checkpoint and the loop re-executes sequentially.
//
// The protocol itself — checkpoint, run, validate, commit or roll back —
// is the SpecRound (spec_round.hpp), which runs each step as one fused pass
// over all of a loop's targets.  The SpecTarget interface itself lives in
// spec_target.hpp.
//
// SpecArray<T, K> is the paper's simplest undo scheme: checkpoint the array
// before the speculative DOALL, record which iteration wrote which
// location, and after the loop — once the last valid iteration is known —
// restore every location an overshot iteration wrote.  The paper prices
// this at 3x the data (data + checkpoint + write record); memory_bytes()
// measures it.  The sparse alternative is SparseSpecArray
// (sparse_spec.hpp).
//
// The write record is one append-only log per worker of 8-byte
// (index, iteration) entries (IterLog, iter_log.hpp).  Every driver's claim
// (doall_quit's self-sized blocks, the strip driver, the sliding window)
// hands each worker its iterations in increasing order, so each worker's
// log is sorted by iteration as it is written.  txn_undo(trip, ...) walks
// every log from its tail while the iteration is >= trip and restores
// those indices from the checkpoint.  That restores exactly
// {i : some write to i came from an iteration >= trip} — the set a
// per-location max-stamp selects — in O(overshoot writes), and the write
// path is a plain store into the worker's own log: no CAS, no shared word.
// With the PD test on, the same logs are the PD test's write marks, so one
// append serves the undo and the PD test.
//
// The write-once-per-location property the paper assumes ("since all
// iterations of the WHILE loop are independent, each memory location will be
// written during at most one iteration") is NOT silently assumed here: a
// location is restored if ANY overshot iteration wrote it, on any worker.
// Violations of the assumption are exactly what the PD test detects.
//
// Storage: the backups and the log segments draw from the process arena
// (wlp::mem), so a retired array's buffers are recycled in O(1) by the next
// array of the same shape and every byte shows up in the wlp.mem budget.
// Sizing a backup does not zero it: the checkpoint copy overwrites every
// element anyway.  A segment holds min(n, kSegmentEntries) entries and is
// allocated on a worker's first write past its open segment; reset_marks()
// rewinds the fill positions and keeps the segments, so warm retries
// allocate nothing.
//
// Concurrency contract: worker vpn appends only to log vpn (the data stores
// race only when iterations genuinely collide, which the PD test reports);
// the checkpoint, undo and restore hooks, reset_marks() and the exact
// logged_writes() run only when no writes are in flight — the fork-join
// barrier of the speculative drivers is the happens-before edge that
// publishes the logs to the undo pass.  memory_bytes() is the one reader
// allowed while workers append (the sliding window polls it at every
// claim): it reads capacities and a relaxed count of opened segments, never
// a log's fill position.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "wlp/core/iter_log.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/core/spec_round.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/mem/arena.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// Bookkeeping the tests read: how many resets and checkpoints an array
/// has paid for, and how many log segments it holds.
struct UndoStats {
  long resets = 0;       ///< log rewinds (reset_marks, full restores)
  long checkpoints = 0;  ///< txn_checkpoint_begin() calls
  long segments = 0;     ///< log segments allocated (kept across resets)
};

/// A shared array under speculation: live data, its checkpoint, the
/// per-worker write logs and (optionally) PD marks.  Loop bodies use the
/// vpn-qualified get/set: a set stores the value and appends to the
/// worker's write log, whose entries are also the PD test's write marks,
/// and a get records an exposed-read mark when the PD test is on.
///
/// Lanes.  K > 1 makes it a lane group: K equal-length arrays the body
/// always writes through one subscript in one iteration.  A set stores
/// every lane at its index and appends ONE entry, so K lanes pin
/// K x (data + backup) plus a single log, take one undo walk (restoring
/// every lane of each entry) and get one PD analysis.  Because every set
/// writes every lane, "this iteration already set idx" covers a get of any
/// lane exactly, and the group passes the PD test exactly when K
/// single-lane targets over the same body would all pass.  TRACK's pos and
/// vel are one two-lane array.  K = 1 is the plain array.
template <class T, std::size_t K = 1>
class SpecArray final : public SpecTarget {
  static_assert(K >= 1, "SpecArray: at least one lane");

 public:
  /// Largest iteration and index an entry records (32-bit fields); the
  /// PD marks apply the index limit to the array size.
  static constexpr long kMaxIter = IterLog::kMaxIter;
  static constexpr std::size_t kMaxIndex = IterLog::kMaxIndex;
  /// Entries per log segment for arrays at least this large (64 KiB).
  static constexpr std::size_t kSegmentEntries = 8192;

  /// `workers` is the number of virtual processors that will write (one log
  /// each); set() takes the writer's vpn, which must be below it.
  /// `run_pd_test` = false means the accesses are statically analyzable
  /// (only the write log for undo is needed): no PD read log is built.
  SpecArray(std::vector<T> init, unsigned workers, bool run_pd_test)
    requires(K == 1)
      : SpecArray(std::array<std::vector<T>, 1>{std::move(init)}, workers,
                  run_pd_test) {}
  /// K lanes of one length (std::invalid_argument otherwise).
  SpecArray(std::array<std::vector<T>, K> lanes, unsigned workers,
            bool run_pd_test)
      : seg_entries_(
            std::clamp<std::size_t>(lanes[0].size(), 1, kSegmentEntries)),
        logs_(open_logs(workers)),
        pd_(lanes[0].size(), logs_, run_pd_test) {
    for (const std::vector<T>& l : lanes)
      if (l.size() != lanes[0].size())
        throw std::invalid_argument("SpecArray: lanes differ in length");
    for (std::size_t l = 0; l < K; ++l) lanes_[l].data = std::move(lanes[l]);
  }

  SpecArray(const SpecArray&) = delete;
  SpecArray& operator=(const SpecArray&) = delete;

  // ---- body-side API -----------------------------------------------------

  /// Must be called by the body at the top of every iteration, per worker.
  void begin_iteration(unsigned vpn, long iter) {
    pd_.begin_iteration(vpn, iter);
  }

  /// Live value (reads are never versioned; anti-dependences on the
  /// original values are the checkpoint's job).
  T get(unsigned vpn, std::size_t idx, std::size_t lane = 0) {
    pd_.on_read(vpn, idx);
    return lanes_[lane].data[idx];
  }

  /// Logged speculative write by iteration `iter` on worker `vpn`: stores
  /// one value per lane at `idx` and appends ONE log entry.  `iter` must be
  /// the iteration begin_iteration(vpn, ...) started; a worker issues its
  /// iterations in increasing order (every driver schedule does), and
  /// writes within one iteration may come in any order.
  template <std::convertible_to<T>... V>
    requires(sizeof...(V) + 1 == K)
  void set(unsigned vpn, long iter, std::size_t idx, const T& v0,
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

  // ---- sequential-side API (fallback path, verification) ------------------

  /// Unlogged access: sequential re-execution and verification.
  std::vector<T>& data(std::size_t lane = 0) noexcept {
    return lanes_[lane].data;
  }
  const std::vector<T>& data(std::size_t lane = 0) const noexcept {
    return lanes_[lane].data;
  }

  /// Log entries since the last rewind, across all workers: one per set,
  /// whatever K is (exact; quiescent only).
  std::size_t logged_writes() const noexcept {
    std::size_t n = 0;
    for (const IterLog& log : logs_) n += log.size();
    return n;
  }

  UndoStats undo_stats() const noexcept {
    UndoStats s = stats_;
    for (const IterLog& log : logs_)
      s.segments += static_cast<long>(log.segments());
    return s;
  }

  // ---- SpecTarget ----------------------------------------------------------

  bool shadowed() const override { return pd_.on(); }
  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pd_.analyze(pool, trip);
  }
  /// O(workers): rewind the PD marks and every write log; the segments stay
  /// allocated for reuse.
  void reset_marks() override {
    pd_.reset();
    rewind_logs();
  }
  long marks() const override { return pd_.marks(); }

  /// Bytes of state this array pins: K x (data + pooled backup) plus the
  /// segments of the ONE log opened since the last rewind — the paper's 3x
  /// note, measured.  This is what the Section 8 sliding-window memory
  /// budget controller charges for a dense target, polled while workers
  /// append, so every opened segment counts whole: a run that writes each
  /// index at most once charges at most 8 bytes per index plus one partly
  /// filled segment per worker.
  std::size_t memory_bytes() const override {
    std::size_t b = 0;
    for (const Lane& l : lanes_)
      b += (l.data.capacity() + l.backup.capacity()) * sizeof(T);
    return b + open_segments_.load(std::memory_order_relaxed) * seg_entries_ *
                   sizeof(IterEntry);
  }

  /// Commit: drop the checkpoint.  The buffers are KEPT (pooled) so the
  /// next strip's checkpoint allocates nothing; memory_bytes() still counts
  /// them.
  void discard() override { has_checkpoint_ = false; }

  // ---- fused-pass hooks: one dense target of size() indices ----------------
  // The round runs ONE pool-parallel checkpoint over the concatenated index
  // ranges of all its targets, so the checkpoint, the undo and the full
  // restore are span operations: begin sizes the pooled buffers and counts
  // the checkpoint, the span calls copy [b, e) of every lane, and the round
  // times them.

  std::size_t txn_dense_size() const override { return size(); }
  void txn_checkpoint_begin() override {
    for (Lane& l : lanes_) l.backup.resize(size());
    has_checkpoint_ = true;
    ++stats_.checkpoints;
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) override {
    for (Lane& l : lanes_) copy_span(l.data.data(), l.backup.data(), b, e);
  }
  /// The undo walk (one stripe of the round's undo pass, the Ta term):
  /// every worker's log from its tail while the entry's iteration is
  /// >= trip, restoring every lane of the logged indices that fall in
  /// [lo, hi) from the backup.  Walks over disjoint index ranges may run
  /// concurrently: a location two overshot workers wrote is still restored
  /// by one thread only.  Returns the element writes taken back, K per
  /// entry: a location written by k overshot writes counts k·K times.
  long txn_undo(long trip, std::size_t lo, std::size_t hi) override {
    assert(has_checkpoint_ || size() == 0);
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
  void txn_restore_all_span(std::size_t b, std::size_t e) override {
    assert(has_checkpoint_ || size() == 0);
    for (Lane& l : lanes_) copy_span(l.backup.data(), l.data.data(), b, e);
  }
  void txn_restore_all_done() override { rewind_logs(); }

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

  /// One lane: its live data and its checkpoint.
  struct Lane {
    std::vector<T> data;
    /// Arena-pooled (recycled across arrays); sized without a zero fill.
    std::vector<T, BackupAlloc<T>> backup;
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

  std::vector<IterLog> open_logs(unsigned workers) {
    std::vector<IterLog> logs;
    logs.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      logs.emplace_back(seg_entries_, &open_segments_);
    return logs;
  }

  void rewind_logs() noexcept {
    for (IterLog& log : logs_) log.clear();
    open_segments_.store(0, std::memory_order_relaxed);
    ++stats_.resets;
  }

  std::size_t size() const noexcept { return lanes_[0].data.size(); }

  std::array<Lane, K> lanes_;
  std::size_t seg_entries_;    ///< entries per log segment
  std::vector<IterLog> logs_;  ///< one per worker, written only by it
  PDMarks pd_;                 ///< reads logs_ as its write marks
  bool has_checkpoint_ = false;
  UndoStats stats_;
  /// Segments opened since the last rewind, summed over the workers: the
  /// log term of memory_bytes(), safe to read mid-run.  Own cache line,
  /// so its once-per-segment bump stays off the lines every write reads.
  alignas(kCacheLine) std::atomic<std::size_t> open_segments_{0};
};

/// Run a WHILE loop speculatively in parallel over [0, u): one SpecRound
/// over the whole loop.
///
/// `body(i, vpn) -> IterAction` is the instrumented parallel body: it must
/// route every access to the registered targets through their get/set and
/// call begin_iteration first.  `run_sequential() -> long` executes the loop
/// serially against the targets' raw data() and returns the trip count; it
/// is invoked only after a full restore when speculation fails.
template <class Body, class SeqRun>
ExecReport speculative_while(ThreadPool& pool, long u,
                             std::span<SpecTarget* const> targets, Body&& body,
                             SeqRun&& run_sequential, bool use_quit = true) {
  ExecReport r;
  // Without the QUIT every iteration in [0, u) runs: Induction-1 (Fig. 2).
  r.method = use_quit ? Method::kInduction2 : Method::kInduction1;
  WLP_TRACE_SCOPE("spec.round", u, targets.size());
  SpecRound round(pool, targets, r);
  round.begin();
  QuitResult qr{};
  round.run([&] { qr = doall_quit(pool, 0, u, body, use_quit); });
  r.trip = qr.trip;
  r.started = qr.started;
  r.overshot = std::max(0L, qr.started - qr.trip);
  if (round.validate(qr.trip))
    round.commit(qr.trip);
  else
    r.trip = round.rollback(run_sequential);
  return r;
}

}  // namespace wlp
