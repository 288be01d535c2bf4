// Speculative execution WITH privatization under test — the second half of
// Section 5, over Section 4's privatization with copy-in and
// time-stamp-ordered copy-out.
//
// When the only cross-iteration dependences are memory related (output
// dependences from re-used locations), privatization makes the loop a valid
// DOALL.  Whether privatization itself was valid can only be decided at run
// time, so the loop runs on per-processor private copies while the PD
// shadow records accesses; the post-execution verdict
// `parallel_with_privatization` (no element both written and exposed-read
// by different iterations) decides between:
//
//   * success — copy out, per location, the private value with the largest
//     time-stamp not exceeding the last valid iteration;
//   * failure — simply discard the private copies and run sequentially.
//
// Each virtual processor gets a private copy of the shared array (copy-in of
// the pre-loop values).  Because a private location may legitimately be
// written by *several* iterations of a valid parallel loop, last-value
// copy-out cannot use a single stamp per location: the paper prescribes a
// time-stamped *trail* of writes, from which copy-out selects, per location,
// the value with the largest stamp that is not larger than the last valid
// iteration.
//
// Note what is ABSENT compared to speculative.hpp: no checkpoint and no
// restore.  "Privatized variables need not be backed up because the
// original version of the variable can serve as the backup since it is not
// altered during the parallel execution."  DESIGN.md §12 keeps this driver
// outside the SpecRound on purpose.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// Type-erased interface over one privatized array under speculation.
class PrivTarget {
 public:
  virtual ~PrivTarget() = default;
  virtual PDVerdict analyze(ThreadPool& pool, long trip) const = 0;
  virtual long copy_out(long trip) = 0;
  /// Shadow marks recorded during the run (instrumentation volume).
  virtual long marks() const { return 0; }
};

/// A shared array speculated on through per-processor private copies and
/// their write trails.  The shared vector stays untouched until copy_out().
/// Whether privatization was *valid* (every read preceded by a
/// same-iteration write, per the Privatization Criterion) is the PD test's
/// verdict; this class provides the mechanism.
template <class T>
class PrivatizedSpecArray final : public PrivTarget {
 public:
  /// `shared` stays owned by the caller; its pre-loop contents are the
  /// copy-in source and it receives the copy-out.
  PrivatizedSpecArray(std::vector<T>& shared, unsigned workers)
      : shared_(shared),
        copies_(workers, std::vector<T>(shared)),
        trails_(workers),
        pd_(shared.size(), workers, true) {}

  // ---- body-side API -----------------------------------------------------

  void begin_iteration(unsigned vpn, long iter) {
    pd_.begin_iteration(vpn, iter);
  }

  /// Private read on worker `vpn`.
  T get(unsigned vpn, std::size_t idx) {
    pd_.on_read(vpn, idx);
    return copies_[vpn][idx];
  }

  /// Private write by iteration `iter` on worker `vpn`; appends to the
  /// worker's trail so the value can be copied out later.  `iter` must be
  /// the iteration begin_iteration(vpn, ...) started.
  void set(unsigned vpn, long iter, std::size_t idx, const T& v) {
    pd_.on_write(vpn, idx);
    copies_[vpn][idx] = v;
    trails_[vpn].value.push_back({iter, idx, v});
  }

  // ---- PrivTarget ----------------------------------------------------------

  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pd_.analyze(pool, trip);
  }

  /// Copy out the last valid value of every written location: the last
  /// write of the largest iteration below `trip`.  An iteration runs on one
  /// worker, whose trail holds its writes in program order, so a stable
  /// sort by (index, iteration) of the trails taken in turn leaves that
  /// write last among its index's entries.  Returns the number of locations
  /// copied out.
  long copy_out(long trip) override {
    std::vector<TrailEntry> all;
    for (const auto& t : trails_)
      for (const TrailEntry& e : t.value)
        if (e.iter < trip) all.push_back(e);
    std::stable_sort(all.begin(), all.end(),
                     [](const TrailEntry& a, const TrailEntry& b) {
                       if (a.idx != b.idx) return a.idx < b.idx;
                       return a.iter < b.iter;
                     });
    long copied = 0;
    for (std::size_t i = 0; i < all.size(); ++i)
      if (i + 1 == all.size() || all[i + 1].idx != all[i].idx) {
        shared_[all[i].idx] = all[i].value;
        ++copied;
      }
    return copied;
  }

  long marks() const override { return pd_.marks(); }

  /// Total trail length (the memory cost Section 8 manages).
  std::size_t trail_entries() const noexcept {
    std::size_t n = 0;
    for (const auto& t : trails_) n += t.value.size();
    return n;
  }

 private:
  struct TrailEntry {
    long iter;
    std::size_t idx;
    T value;
  };

  std::vector<T>& shared_;
  std::vector<std::vector<T>> copies_;
  std::vector<Padded<std::vector<TrailEntry>>> trails_;
  PDMarks pd_;
};

/// Run a WHILE loop speculatively with privatization under test.
/// `body(i, vpn) -> IterAction` must route accesses to the registered
/// targets through get/set after begin_iteration.  On a conflict verdict
/// the private copies are discarded (the shared data was never touched) and
/// `run_sequential() -> trip` executes against the pristine shared data.
template <class Body, class SeqRun>
ExecReport speculative_privatized_while(ThreadPool& pool, long u,
                                        std::span<PrivTarget* const> targets,
                                        Body&& body, SeqRun&& run_sequential) {
  ExecReport r;
  r.method = Method::kInduction2;
  r.used_checkpoint = false;  // the original data IS the backup
  r.used_stamps = true;       // the write trails are time-stamped
  r.pd_tested = true;

  bool failed = false;
  QuitResult qr{};
  try {
    qr = doall_quit(pool, 0, u, body);
  } catch (...) {
    failed = true;  // Section 5.1: exception == invalid parallel execution
  }

  for (const PrivTarget* t : targets) r.shadow_marks += t->marks();
  WLP_OBS_COUNT("wlp.pd.marks", r.shadow_marks);

  if (!failed) {
    r.trip = qr.trip;
    r.started = qr.started;
    r.overshot = std::max(0L, qr.started - qr.trip);
    for (const PrivTarget* t : targets) {
      const PDVerdict v = t->analyze(pool, qr.trip);
      if (!v.parallel_with_privatization()) {
        r.pd_passed = false;
        failed = true;
      }
    }
  }

  if (failed) {
    r.reexecuted_sequentially = true;
    r.trip = run_sequential();
    return r;
  }

  for (PrivTarget* t : targets) t->copy_out(qr.trip);
  return r;
}

}  // namespace wlp
