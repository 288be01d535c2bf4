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
#include <array>
#include <concepts>
#include <cstddef>
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
///
/// K > 1 makes it a lane group (VersionedArray's lanes): K arrays the body
/// always writes through one subscript in one iteration.  A set stores
/// every lane and appends one entry, so the group keeps one log, takes one
/// undo walk and gets one PD analysis.  Because every set writes every
/// lane, "this iteration already set idx" covers a get of any lane exactly,
/// and the group passes the PD test exactly when K single-lane targets over
/// the same body would all pass.
template <class T, std::size_t K = 1>
class SpecArray final : public SpecTarget {
 public:
  /// `run_pd_test` = false means the accesses are statically analyzable
  /// (only the write log for undo is needed): no PD log is built.
  SpecArray(std::vector<T> init, unsigned workers, bool run_pd_test)
    requires(K == 1)
      : SpecArray(std::array<std::vector<T>, 1>{std::move(init)}, workers,
                  run_pd_test) {}
  /// K lanes of one length (std::invalid_argument otherwise).
  SpecArray(std::array<std::vector<T>, K> lanes, unsigned workers,
            bool run_pd_test)
      : array_(std::move(lanes), workers),
        pd_(array_.size(), array_.logs(), run_pd_test) {}

  // ---- body-side API -----------------------------------------------------

  /// Must be called by the body at the top of every iteration, per worker.
  void begin_iteration(unsigned vpn, long iter) {
    pd_.begin_iteration(vpn, iter);
  }

  T get(unsigned vpn, std::size_t idx, std::size_t lane = 0) {
    pd_.on_read(vpn, idx);
    return array_.get(idx, lane);
  }

  /// Stores one value per lane at `idx`.  `iter` must be the iteration
  /// begin_iteration(vpn, ...) started.
  template <std::convertible_to<T>... V>
    requires(sizeof...(V) + 1 == K)
  void set(unsigned vpn, long iter, std::size_t idx, const T& v0,
           const V&... v) {
    array_.write(vpn, iter, idx, v0, v...);
  }

  // ---- sequential-side API (fallback path, verification) ------------------

  std::vector<T>& data(std::size_t lane = 0) noexcept {
    return array_.data(lane);
  }
  const std::vector<T>& data(std::size_t lane = 0) const noexcept {
    return array_.data(lane);
  }

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

  // ---- fused-transaction hooks: one dense member of size() indices ---------

  std::size_t txn_dense_size() const override { return array_.size(); }
  void txn_checkpoint_begin() override { array_.txn_checkpoint_begin(); }
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
  VersionedArray<T, K> array_;
  PDMarks pd_;
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
