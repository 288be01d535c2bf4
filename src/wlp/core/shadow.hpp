// Marks for the PRIVATIZING DOALL (PD) test — Section 5.1.
//
// For each shared array whose accesses cannot be analyzed at compile time,
// the speculative parallel execution records the array's own access
// pattern:
//   * every write to element e is a write mark (the paper's Aw),
//   * every read that is NOT preceded by a same-iteration write is an
//     exposed-read mark (Ar) — exposed reads are what invalidate both
//     independence and privatization.
//
// To support WHILE-loop overshoot (Section 5: "all writes to the shadow
// arrays ... will be time-stamped, and for each shadow element we will
// maintain the minimum iteration that marked it"), the analysis looks only
// at marks made by iterations below the last valid iteration (trip), and
// per element needs only the TWO smallest distinct writer iterations
// (w0 < w1) and the two smallest distinct exposed-read iterations
// (r0 < r1) among them:
//   written          iff w0 exists
//   multiply written iff w1 exists        (output dependence -> privatize)
//   exposed-read     iff r0 exists
//
// A cross-iteration flow/anti dependence (a *conflict*) exists iff some
// iteration writes the element and a DIFFERENT iteration exposed-reads it.
// With the two-smallest sets that is decidable exactly:
//   conflict iff written && exposed && (w1 exists || r1 exists || w0 != r0)
// — a same-iteration read-then-write like A[i] = 2*A[i] (the paper's
// Fig. 5(a)) leaves w0 == r0 as the only marks and correctly passes.
//
// PDMarks keeps the marks as two append-only logs per worker of 8-byte
// (index, iteration) entries — the IterLog that VersionedArray keeps for
// undo (iter_log.hpp): one for writes, one for exposed reads.  A mark is one
// append to the worker's own log, with no shared word and no per-element
// table, and reset() rewinds the logs in O(workers).  A SpecArray's write
// marks are its undo log's entries, so one append serves both.  A worker's
// iterations arrive in increasing order, so the current iteration's writes
// sit at the tail of its write log: "covered by a write in the same
// iteration" is a walk of that tail.  analyze() groups the entries below
// trip by element in O(marks) (pd_test.cpp); nothing here is O(n).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wlp/core/iter_log.hpp"
#include "wlp/mem/arena.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp {

/// Outcome of the PD test's post-execution analysis.
struct PDVerdict {
  long written_elements = 0;  ///< distinct elements written by valid iterations
  long multi_written = 0;     ///< elements written in >= 2 distinct valid iterations
  long exposed_read_elements = 0;
  long conflicts = 0;  ///< elements both written and exposed-read
                       ///< by different valid iterations

  /// Loop was fully parallel as executed (no cross-iteration dependences).
  bool fully_parallel() const noexcept { return conflicts == 0 && multi_written == 0; }
  /// Loop is valid as a privatized DOALL (output deps removable).
  bool parallel_with_privatization() const noexcept { return conflicts == 0; }

  PDVerdict& merge(const PDVerdict& o) noexcept {
    written_elements += o.written_elements;
    multi_written += o.multi_written;
    exposed_read_elements += o.exposed_read_elements;
    conflicts += o.conflicts;
    return *this;
  }
};

/// The PD marks of one speculation target.  Every target (SpecArray,
/// SparseSpecArray, AdaptiveSpecArray, PrivatizedSpecArray) and every
/// unknown-access array of an executed plan holds one and forwards its
/// body-side accesses here.  With `on` = false the accesses are statically
/// analyzable: no log is built and every mark is a predictable no-op.
///
/// Concurrency contract: marks for one vpn come from one thread at a time
/// (the pool hands each vpn share to exactly one thread), and analyze() /
/// reset() run only while no marking is in flight (the fork-join barrier
/// provides the happens-before edge).
class PDMarks {
 public:
  /// Total marks below which analyze() runs on the calling thread.
  static constexpr std::size_t kSequentialMarks = 1u << 14;

  /// Indices have the 32-bit limit of the log entries: throws
  /// std::length_error for n beyond it.
  PDMarks(std::size_t n, unsigned workers, bool on);
  /// Write marks kept in the owner's logs, one per worker: the owner
  /// appends every write to `writes[vpn]` at the iteration
  /// begin_iteration(vpn, ...) started, and rewinds them; on_write() is not
  /// called.  SpecArray passes its undo logs.
  PDMarks(std::size_t n, std::span<IterLog> writes, bool on);

  PDMarks(const PDMarks&) = delete;
  PDMarks& operator=(const PDMarks&) = delete;

  bool on() const noexcept { return on_; }

  /// Start iteration `iter` on worker `vpn`.  A worker's iterations never
  /// go back between resets; calling again with the same `iter` changes
  /// nothing.
  void begin_iteration(unsigned vpn, long iter) noexcept {
    if (!on_) return;
    Worker& w = workers_[vpn];
    assert(iter >= 0 && iter <= IterLog::kMaxIter);
    assert(w.iter <= iter);
    w.iter = iter;
  }

  void on_write(unsigned vpn, std::size_t idx) {
    if (!on_) return;
    Worker& w = workers_[vpn];
    assert(w.iter >= 0 && idx < n_ && !own_.empty());
    w.writes->push(idx, w.iter);
  }

  /// A read is covered — and not marked — when this worker's current
  /// iteration already wrote `idx`; those writes are its log's tail.
  void on_read(unsigned vpn, std::size_t idx) {
    if (!on_) return;
    Worker& w = workers_[vpn];
    assert(w.iter >= 0 && idx < n_);
    assert(w.writes->last_iter() <= w.iter);
    const auto iter = static_cast<std::uint32_t>(w.iter);
    bool covered = false;
    w.writes->walk_back([&](const IterEntry& e) {
      if (e.iter != iter) return false;
      covered = e.idx == idx;
      return !covered;
    });
    if (!covered) w.reads.push(idx, w.iter);
  }

  /// O(workers): rewind every log but an owner's (the owner rewinds
  /// those); the segments stay for the next round.
  void reset() noexcept {
    for (IterLog& log : own_) log.clear();
    for (Worker& w : workers_) {
      w.reads.clear();
      w.iter = -1;
    }
    WLP_OBS_COUNT("wlp.pd.resets", 1);
  }

  /// Marks recorded since the last reset() (0 when off): the measured
  /// instrumentation volume the cost model consumes (ExecReport::
  /// shadow_marks, LoopStatistics::marks_per_iteration).
  long marks() const noexcept {
    std::size_t m = 0;
    for (const Worker& w : workers_) m += w.writes->size() + w.reads.size();
    return static_cast<long>(m);
  }

  /// The trip-filtered PD test over every mark made by an iteration below
  /// `trip`: exact, O(marks), on the pool when the logs are large.
  PDVerdict analyze(ThreadPool& pool, long trip) const;

  /// Two smallest distinct writer and exposed-reader iterations of one
  /// element, -1 where absent.
  struct Iterations {
    long w0 = -1, w1 = -1, r0 = -1, r1 = -1;
  };
  /// Diagnostic (tests): one element's iterations over every log.  O(marks).
  Iterations iterations_of(std::size_t idx) const;

 private:
  /// Entries per log segment (64 KiB).
  static constexpr std::size_t kSegmentEntries = 8192;

  struct Worker {
    Worker(IterLog& w, mem::Arena& a) : writes(&w), reads(a, kSegmentEntries) {}
    IterLog* writes;
    IterLog reads;  ///< exposed reads
    long iter = -1;  ///< current iteration, -1 before the first of a round
  };

  /// One Worker per write log; read logs from the constructing thread.
  void attach(std::span<IterLog> writes);

  bool on_;
  std::size_t n_;
  std::vector<IterLog> own_;  ///< the write logs, unless an owner keeps them
  std::vector<Worker> workers_;
};

}  // namespace wlp
