// Speculative execution WITH privatization under test — the second half of
// Section 5.
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
// Note what is ABSENT compared to speculative.hpp: no checkpoint and no
// restore.  "Privatized variables need not be backed up because the
// original version of the variable can serve as the backup since it is not
// altered during the parallel execution."
#pragma once

#include <span>
#include <vector>

#include "wlp/core/privatize.hpp"
#include "wlp/core/report.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/sched/doall.hpp"

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

/// A shared array speculated on through per-processor private copies.
/// The shared vector stays untouched until copy_out().
template <class T>
class PrivatizedSpecArray final : public PrivTarget {
 public:
  PrivatizedSpecArray(std::vector<T>& shared, unsigned workers)
      : priv_(shared, workers), pd_(shared.size(), workers, true),
        iter_(workers, -1) {}

  // ---- body-side API -----------------------------------------------------

  void begin_iteration(unsigned vpn, long iter) {
    pd_.begin_iteration(vpn, iter);
    iter_[vpn] = iter;
  }

  T get(unsigned vpn, std::size_t idx) {
    pd_.on_read(vpn, idx);
    return priv_.read(vpn, idx);
  }

  void set(unsigned vpn, std::size_t idx, const T& v) {
    pd_.on_write(vpn, idx);
    priv_.write(vpn, iter_[vpn], idx, v);
  }

  // ---- PrivTarget ----------------------------------------------------------

  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pd_.analyze(pool, trip);
  }
  long copy_out(long trip) override { return priv_.copy_out(trip); }
  long marks() const override { return pd_.marks(); }

  std::size_t trail_entries() const { return priv_.trail_entries(); }

 private:
  PrivatizedArray<T> priv_;
  PDMarks pd_;
  // Current iteration per worker (PrivatizedArray wants it on write).
  std::vector<long> iter_;
};

/// Run a WHILE loop speculatively with privatization under test.
/// `body(i, vpn) -> IterAction` must route accesses to the registered
/// targets through get/set after begin_iteration.  On a conflict verdict
/// the private copies are discarded (the shared data was never touched) and
/// `run_sequential() -> trip` executes against the pristine shared data.
template <class Body, class SeqRun>
ExecReport speculative_privatized_while(ThreadPool& pool, long u,
                                        std::span<PrivTarget* const> targets,
                                        Body&& body, SeqRun&& run_sequential,
                                        bool use_quit = true) {
  ExecReport r;
  r.method = use_quit ? Method::kInduction2 : Method::kInduction1;
  r.used_checkpoint = false;  // the original data IS the backup
  r.used_stamps = true;       // the write trails are time-stamped
  r.pd_tested = true;

  bool failed = false;
  QuitResult qr{};
  try {
    qr = doall_quit(pool, 0, u, body, use_quit);
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
