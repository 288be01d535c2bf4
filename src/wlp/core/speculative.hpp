// Speculative parallel execution of WHILE loops with unknown cross-iteration
// dependences — Section 5.
//
// The compiler (or the user, through this API) cannot prove the remainder
// independent, so the loop runs speculatively as a DOALL with the PD test's
// shadow marking woven into every access.  After the run:
//   * the last valid iteration (trip) is recovered from the QUIT minima,
//   * the PD analysis — filtered by trip, so overshot iterations' marks are
//     ignored — decides whether the parallel execution was valid,
//   * on success, overshot writes are undone via the time-stamps,
//   * on failure (or an exception during the run, Section 5.1), all state is
//     restored from the checkpoint and the loop re-executes sequentially.
//
// The protocol itself — checkpoint, run, validate, commit or roll back —
// is the SpecRound (spec_round.hpp); all targets of one loop run under its
// ONE SpecTransaction (txn.hpp).  The SpecTarget interface itself lives in
// spec_target.hpp.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/core/spec_round.hpp"
#include "wlp/core/spec_target.hpp"
#include "wlp/core/versioned_array.hpp"
#include "wlp/pd/verdict_cache.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// A shared array under speculation: versioned data + (optionally) a PD
/// shadow with one accessor per worker.  Loop bodies use the vpn-qualified
/// get/set, which both maintain the stamps and drive the shadow marking.
///
/// `Shadow` selects the marking policy: `PDPrivateShadow` (default) marks
/// into per-worker private segments with plain stores and merges at analyze
/// time; `PDSharedShadow` is the old striped-lock shared structure, kept for
/// A/B comparison in benches.
template <class T, class Shadow = PDPrivateShadow>
class SpecArray final : public SpecTarget {
 public:
  /// `run_pd_test` = false means the accesses are statically analyzable
  /// (only time-stamping for undo is needed, no shadow marking) — the
  /// accessors (and their O(n) last-writer tables) are not even built.
  ///
  /// `shared` optionally aliases a trip-aligned sibling's StampIndex so a
  /// transaction over both keeps one stamp word per location (see the
  /// StampIndex class comment for the write-set contract this requires).
  SpecArray(std::vector<T> init, unsigned workers, bool run_pd_test,
            std::shared_ptr<StampIndex> shared = nullptr)
      : array_(std::move(init), std::move(shared)), pd_(run_pd_test),
        shadow_(array_.size(), workers) {
    if (pd_) {
      accessors_.reserve(workers);
      for (unsigned w = 0; w < workers; ++w)
        accessors_.emplace_back(shadow_, array_.size(), w);
    }
    writers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      writers_.emplace_back(array_.writer());
  }

  // ---- body-side API -----------------------------------------------------

  /// Must be called by the body at the top of every iteration, per worker.
  void begin_iteration(unsigned vpn, long iter) {
    if (pd_) accessors_[vpn].begin_iteration(iter);
  }

  T get(unsigned vpn, std::size_t idx) {
    if (pd_) accessors_[vpn].on_read(idx);
    return array_.get(idx);
  }

  void set(unsigned vpn, long iter, std::size_t idx, const T& v) {
    if (pd_) accessors_[vpn].on_write(idx);
    // Per-worker Writer view: consecutive writes into the same 64-element
    // block skip the dirty-summary publication entirely.
    writers_[static_cast<std::size_t>(vpn)].value.write(iter, idx, v);
  }

  // ---- sequential-side API (fallback path, verification) ------------------

  std::vector<T>& data() noexcept { return array_.data(); }
  const std::vector<T>& data() const noexcept { return array_.data(); }

  /// The stamp index, for constructing trip-aligned siblings over it.
  const std::shared_ptr<StampIndex>& shared_index() const noexcept {
    return array_.shared_index();
  }

  // ---- SpecTarget ----------------------------------------------------------

  void checkpoint(ThreadPool* pool) override { array_.checkpoint(pool); }
  long undo_beyond(long trip, ThreadPool* pool) override {
    return array_.undo_beyond(trip, pool);
  }
  void restore_all(ThreadPool* pool) override { array_.restore_all(pool); }
  bool shadowed() const override { return pd_; }
  PDVerdict analyze(ThreadPool& pool, long trip) const override {
    return shadow_.analyze(pool, trip);
  }
  void reset_marks() override {
    shadow_.reset();  // O(1) epoch bump for the privatized policy
    for (auto& a : accessors_) a.reset();
    array_.clear_stamps();  // O(1) epoch bump too
    // The Writers' cached blocks belong to the dead epoch: rebind so the
    // first write of the new run re-publishes its dirty bit.
    for (auto& w : writers_) w.value.rebind();
  }
  long marks() const override {
    long m = 0;
    for (const auto& a : accessors_) m += a.marks();
    return m;
  }
  std::size_t memory_bytes() const override { return array_.memory_bytes(); }
  void discard() override { array_.discard_checkpoint(); }

  // ---- verdict-cache hooks -------------------------------------------------
  // Compiled only for shadow policies with summary support (the privatized
  // one); the shared policy keeps the defaults and the cache bypasses it.

  void enable_access_signatures(bool on) override {
    if constexpr (requires(Shadow& s) { s.enable_signatures(on); }) {
      if (pd_) shadow_.enable_signatures(on);
    }
  }
  bool access_summary(PDAccessSummary* out) const override {
    if constexpr (requires(const Shadow& s) { s.access_summary(); }) {
      if (pd_ && shadow_.signatures_enabled()) {
        *out = shadow_.access_summary();
        return true;
      }
    }
    return false;
  }
  long dirty_block_count() const override {
    return array_.dirty_block_count();
  }

  // ---- fused-transaction hooks --------------------------------------------

  StampIndex* txn_index() noexcept override { return array_.index(); }
  std::size_t txn_checkpoint_begin() override {
    return array_.txn_checkpoint_begin();
  }
  void txn_checkpoint_span(std::size_t b, std::size_t e) override {
    array_.txn_checkpoint_span(b, e);
  }
  long txn_restore_span(std::size_t b, std::size_t e,
                        std::uint64_t threshold) override {
    return array_.restore_span(b, e, threshold);
  }
  void txn_restore_all_span(std::size_t b, std::size_t e) override {
    array_.txn_restore_all_span(b, e);
  }
  void txn_restore_all_done() override { array_.clear_stamps(); }

  UndoStats undo_stats() const { return array_.stats(); }

 private:
  VersionedArray<T> array_;
  bool pd_;
  Shadow shadow_;
  std::vector<PDAccessorT<Shadow>> accessors_;
  /// One dirty-block-caching write view per worker, cache-line padded (the
  /// cached block index mutates on nearly every write).
  std::vector<Padded<typename VersionedArray<T>::Writer>> writers_;
};

struct SpecOptions {
  DoallOptions doall{};
  /// Memory budget for the transaction's measured footprint (0 = none).
  /// The strip driver adapts its strip length against it — halving the next
  /// strip when the fused memory_bytes() poll crosses half the budget,
  /// growing back additively while comfortable — so callers stop wiring
  /// per-target byte probes by hand; the drivers ask the transaction.
  std::size_t memory_budget = 0;
  /// Optional cross-round verdict memoization (pd/verdict_cache.hpp),
  /// handed to the SpecRound: every target accumulates access signatures,
  /// each PD analysis consults the cache first, and misspeculation or a
  /// footprint flip invalidates it.  nullptr = always run the full analysis.
  pdcache::VerdictCache* verdict_cache = nullptr;
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
  r.method = Method::kInduction2;
  WLP_TRACE_SCOPE("spec.round", u, targets.size());
  SpecRound round(pool, targets, r, opts.verdict_cache);
  round.begin();
  QuitResult qr{};
  round.run([&] { qr = doall_quit(pool, 0, u, body, opts.doall); });
  r.trip = qr.trip;
  r.started = qr.started;
  r.overshot = std::max(0L, qr.started - qr.trip);
  if (round.validate(0, qr.trip))
    round.commit(qr.trip);
  else
    r.trip = round.rollback(run_sequential);
  return r;
}

}  // namespace wlp
