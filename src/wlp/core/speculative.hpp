// Speculative parallel execution of WHILE loops with unknown cross-iteration
// dependences — Section 5.
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
// is the SpecRound (spec_round.hpp); all targets of one loop run under its
// ONE SpecTransaction (txn.hpp).  The SpecTarget interface itself lives in
// spec_target.hpp.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/core/spec_round.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/core/versioned_array.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {

/// A shared array under speculation: versioned data + (optionally) PD
/// marks.  Loop bodies use the vpn-qualified get/set: a set appends to the
/// worker's write log, whose entries are also the PD test's write marks,
/// and a get records an exposed-read mark when the PD test is on.
template <class T>
class SpecArray final : public SpecTarget {
 public:
  /// `run_pd_test` = false means the accesses are statically analyzable
  /// (only the write log for undo is needed): no PD log is built.
  SpecArray(std::vector<T> init, unsigned workers, bool run_pd_test)
      : array_(std::move(init), workers),
        pd_(array_.size(), array_.logs(), run_pd_test) {}

  // ---- body-side API -----------------------------------------------------

  /// Must be called by the body at the top of every iteration, per worker.
  void begin_iteration(unsigned vpn, long iter) {
    pd_.begin_iteration(vpn, iter);
  }

  T get(unsigned vpn, std::size_t idx) {
    pd_.on_read(vpn, idx);
    return array_.get(idx);
  }

  /// `iter` must be the iteration begin_iteration(vpn, ...) started.
  void set(unsigned vpn, long iter, std::size_t idx, const T& v) {
    array_.write(vpn, iter, idx, v);
  }

  // ---- sequential-side API (fallback path, verification) ------------------

  std::vector<T>& data() noexcept { return array_.data(); }
  const std::vector<T>& data() const noexcept { return array_.data(); }

  // ---- SpecTarget ----------------------------------------------------------

  bool shadowed() const override { return pd_.on(); }
  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return pd_.analyze(pool, trip);
  }
  void reset_marks() override {
    pd_.reset();
    array_.clear_log();
  }
  long marks() const override { return pd_.marks(); }
  std::size_t memory_bytes() const override { return array_.memory_bytes(); }
  void discard() override { array_.discard_checkpoint(); }

  // ---- fused-transaction hooks --------------------------------------------

  std::size_t txn_dense_size() const override { return array_.size(); }
  std::size_t txn_checkpoint_begin() override {
    return array_.txn_checkpoint_begin();
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) override {
    array_.txn_checkpoint_span(b, e);
  }
  long txn_undo(long trip, std::size_t lo, std::size_t hi) override {
    return array_.txn_undo(trip, lo, hi);
  }
  void txn_restore_all_span(std::size_t b, std::size_t e) override {
    array_.txn_restore_all_span(b, e);
  }
  void txn_restore_all_done() override { array_.clear_log(); }

  UndoStats undo_stats() const { return array_.stats(); }

 private:
  VersionedArray<T> array_;
  PDMarks pd_;
};

struct SpecOptions {
  DoallOptions doall{};
  /// Memory budget for the transaction's measured footprint (0 = none).
  /// The strip driver adapts its strip length against it — halving the next
  /// strip when the fused memory_bytes() poll crosses half the budget,
  /// growing back additively while comfortable — so callers stop wiring
  /// per-target byte probes by hand; the drivers ask the transaction.
  std::size_t memory_budget = 0;
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
                             SeqRun&& run_sequential, SpecOptions opts = {}) {
  ExecReport r;
  // Without the QUIT every iteration in [0, u) runs: Induction-1 (Fig. 2).
  r.method = opts.doall.use_quit ? Method::kInduction2 : Method::kInduction1;
  WLP_TRACE_SCOPE("spec.round", u, targets.size());
  SpecRound round(pool, targets, r);
  round.begin();
  QuitResult qr{};
  round.run([&] { qr = doall_quit(pool, 0, u, body, opts.doall); });
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
