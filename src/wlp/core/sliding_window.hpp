// Resource-controlled self-scheduling — Section 8.2.
//
// A sliding window of size w bounds the spread between the minimum
// not-yet-completed iteration l and the maximum issued iteration h:
// h - l <= w at all times, so the time-stamp memory (here, write-log
// entries) is bounded by w times the writes per iteration *without* the
// rigid global barriers of strip-mining.  The window is adjusted
// dynamically at the application level against a memory budget: grown
// while the footprint is comfortably under budget, shrunk when it
// approaches it.
//
// The budget controller is TRANSACTION-AWARE (DESIGN.md §10): instead of
// capping the window once from a static bytes-per-iteration guess, it keeps
// an EWMA of the MEASURED bytes the backups pin per in-flight iteration
// (live_bytes() / span, sampled at every claim) and re-derives the hard cap
// budget / EWMA live.  A footprint_changed() notification from the
// transaction (an AdaptiveSpecArray flipping hash -> dense is a step jump
// the poll can miss) makes the next decision adopt the fresh sample
// outright and clamp straight to the re-derived cap — no waiting for one
// halving per claim to catch up.  Optionally the controller settles its
// measured footprint into the process-wide wlp::mem Budget so concurrent
// loops budget against the SUM and share one ceiling.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

#include "wlp/obs/obs.hpp"
#include "wlp/core/report.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp {

struct WindowOptions {
  long window = 64;          ///< initial window size
  long min_window = 2;
  long max_window = 1 << 20;
  /// SEED for the controller's bytes-per-iteration estimate (first cap
  /// derivation only).  As soon as measured samples exist the EWMA replaces
  /// it; with live_bytes unset it doubles as the per-claim footprint guess.
  std::size_t bytes_per_iteration = 0;
  std::size_t memory_budget = 0;        ///< 0 disables dynamic adjustment
  /// MEASURED backup footprint, polled at every claim: when set, the
  /// controller compares this against the budget instead of multiplying the
  /// span by the bytes_per_iteration guess, and feeds the per-iteration
  /// EWMA that re-derives the window cap.  The speculative wrapper wires it
  /// to the transaction's fused memory_bytes() (sparse backups report their
  /// live touched set, dense ones data + backup + their opened log
  /// segments), so the window reacts to what the backups actually pinned.
  /// To throttle on the WHOLE process's speculative footprint instead of
  /// one target set's, prefer charge_process_budget below over hand-wiring
  /// probes.
  std::function<std::size_t()> live_bytes;
  /// Settle the measured footprint into wlp::mem::Budget::spec_bytes() and
  /// budget against the process-wide SUM: concurrent budgeted loops then
  /// share one ceiling instead of each assuming it owns the whole budget.
  bool charge_process_budget = false;
  /// Optional cross-run verdict memoization (pd/verdict_cache.hpp): a loop
  /// re-windowed with the same access pattern skips the PD merge.  Same
  /// contract as SpecOptions::verdict_cache (speculative wrapper only).
  pdcache::VerdictCache* verdict_cache = nullptr;
};

/// The transaction-aware budget controller: one instance per windowed run.
/// adjust() runs under the issue lock at every claim; footprint_changed()
/// may fire concurrently from any pool worker (it only flips an atomic).
class WindowController final : public FootprintListener {
 public:
  WindowController(long min_window, long max_window, std::size_t budget,
                   std::size_t seed_bytes_per_iter = 0,
                   bool charge_process_budget = false)
      : min_w_(std::max(1L, min_window)),
        max_w_(std::max(min_w_, max_window)),
        budget_(budget),
        charge_(charge_process_budget) {
    if (seed_bytes_per_iter != 0)
      ewma_bpi_ = static_cast<double>(seed_bytes_per_iter);
    recompute_cap();
  }

  ~WindowController() override { release(); }

  WindowController(const WindowController&) = delete;
  WindowController& operator=(const WindowController&) = delete;

  /// A member of the transaction step-changed its footprint (backend flip):
  /// make the next adjust() adopt the fresh sample outright and clamp to
  /// the re-derived cap instead of smoothing the jump away.
  void footprint_changed() noexcept override {
    step_.store(true, std::memory_order_release);
  }

  /// One budget decision: fold the measured bytes/iteration sample into the
  /// EWMA, re-derive the cap, settle the process charge, and move the
  /// window — multiplicative decrease when occupancy approaches the budget,
  /// additive increase while comfortably under it, always inside the cap.
  /// Returns the new window size.
  long adjust(long window, long span, std::size_t in_use) {
    if (budget_ == 0) return window;
    const bool step = step_.exchange(false, std::memory_order_acq_rel);
    const std::size_t occupied = charge_ ? settle(in_use) : in_use;
    foreign_ = occupied > in_use ? occupied - in_use : 0;
    if (span > 0 && in_use > 0) {
      const double sample =
          static_cast<double>(in_use) / static_cast<double>(span);
      // A notified step jump resets the average outright: smoothing a ~Nx
      // flip over 1/alpha claims is exactly the lag the hook exists to
      // kill.
      ewma_bpi_ = (ewma_bpi_ <= 0.0 || step)
                      ? sample
                      : kAlpha * sample + (1.0 - kAlpha) * ewma_bpi_;
    }
    recompute_cap();
    long w = window;
    if (occupied * 2 > budget_) {
      w = std::max(min_w_, w / 2);
    } else if (w < cap_) {
      ++w;
    }
    w = std::clamp(w, min_w_, cap_);
    if (w < window)
      ++shrinks_;
    else if (w > window)
      ++grows_;
    return w;
  }

  /// Settle any process-budget charge back to zero (run over).  Idempotent;
  /// the destructor calls it too.
  void release() noexcept {
    if (charge_ && charged_ != 0) {
      mem::Budget::process().add_spec_bytes(-static_cast<long>(charged_));
      charged_ = 0;
    }
  }

  /// Current hard cap on the window (iterations), re-derived at every
  /// adjust() from budget / EWMA(bytes per iteration).
  long cap() const noexcept { return cap_; }
  /// Bytes the current cap represents under the measured estimate — the
  /// controller's live answer to "how much can a full window pin".
  std::size_t cap_bytes() const noexcept { return cap_bytes_; }
  double bytes_per_iteration() const noexcept {
    return ewma_bpi_ > 0.0 ? ewma_bpi_ : 0.0;
  }
  long shrinks() const noexcept { return shrinks_; }
  long grows() const noexcept { return grows_; }

 private:
  static constexpr double kAlpha = 0.25;  ///< EWMA weight of the new sample

  void recompute_cap() noexcept {
    if (budget_ == 0) {
      cap_ = max_w_;
      cap_bytes_ = 0;
      return;
    }
    long cap = max_w_;
    // Budget left for THIS loop: the whole budget minus what concurrent
    // loops have charged (foreign_ is 0 outside process-budget mode).
    const std::size_t avail = budget_ > foreign_ ? budget_ - foreign_ : 0;
    if (ewma_bpi_ > 0.0)
      cap = static_cast<long>(static_cast<double>(avail) / ewma_bpi_);
    cap_ = std::clamp(cap, min_w_, max_w_);
    cap_bytes_ = ewma_bpi_ > 0.0
                     ? static_cast<std::size_t>(ewma_bpi_ *
                                                static_cast<double>(cap_))
                     : avail;
  }

  /// Process-budget mode: publish our measured footprint delta and return
  /// the process-wide total (ours + every concurrent loop's).
  std::size_t settle(std::size_t now) noexcept {
    mem::Budget::process().add_spec_bytes(static_cast<long>(now) -
                                          static_cast<long>(charged_));
    charged_ = now;
    const long total = mem::Budget::process().spec_bytes();
    return total > 0 ? static_cast<std::size_t>(total) : 0;
  }

  const long min_w_;
  const long max_w_;
  const std::size_t budget_;
  const bool charge_;
  std::atomic<bool> step_{false};
  double ewma_bpi_ = 0.0;         ///< EWMA of measured bytes per iteration
  long cap_ = 0;                  ///< derived hard cap (iterations)
  std::size_t cap_bytes_ = 0;     ///< bytes cap_ represents under the EWMA
  std::size_t foreign_ = 0;       ///< concurrent loops' charged bytes
  std::size_t charged_ = 0;       ///< our last settled footprint
  long shrinks_ = 0;
  long grows_ = 0;
};

struct WindowReport {
  ExecReport exec;
  long max_span = 0;       ///< max (h - l) observed; must stay <= max window used
  long final_window = 0;   ///< window size when the loop ended
  std::size_t peak_stamp_bytes = 0;
  // Controller decisions (zero when no memory_budget was set).
  long window_shrinks = 0;     ///< multiplicative-decrease decisions
  long window_grows = 0;       ///< additive-increase decisions
  long final_cap = 0;          ///< derived hard cap at the end of the run
  std::size_t cap_bytes = 0;   ///< bytes that cap represents (EWMA estimate)
};

namespace detail {

/// The windowed self-scheduling loop over [0, u), driven by `ctl` (one
/// controller per run) and writing into `wr`.
template <class Body>
void window_run(ThreadPool& pool, long u, Body& body, const WindowOptions& opts,
                WindowController& ctl, WindowReport& wr) {
  wr.exec.method = Method::kSlidingWindow;
  if (u <= 0) return;
  WLP_TRACE_SCOPE("window.run", u, opts.window);

  std::mutex mu;
  std::condition_variable cv;
  long next = 0;  // next iteration to issue
  long low = 0;   // min iteration not yet completed
  // The controller caps the window outright: w * bytes-per-iteration <=
  // budget is the guarantee (peak log memory is bounded by the window).
  // The cap starts from the bytes_per_iteration seed and is re-derived at
  // every claim from the EWMA of the measured footprint, so it tracks what
  // the backups actually pin instead of a static guess.
  long window = std::clamp(opts.window, opts.min_window, ctl.cap());
  std::vector<unsigned char> done(static_cast<std::size_t>(u), 0);
  QuitBound quit;
  long trip_candidate = std::numeric_limits<long>::max();
  long started = 0;
  long max_span = 0;
  std::size_t peak_bytes = 0;

  // Section 8.2's rule: every grab of the issue lock claims one iteration.
  pool.parallel([&](unsigned vpn) {
    for (;;) {
      long i;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] {
          return next >= u || quit.cut(next) || next - low < window;
        });
        if (next >= u || quit.cut(next)) return;
        i = next++;
        ++started;
        max_span = std::max(max_span, next - low);
        WLP_TRACE_INSTANT("window.claim", i, 1);
        if (opts.memory_budget != 0 &&
            (opts.live_bytes || opts.bytes_per_iteration != 0)) {
          // Prefer the measured footprint over the per-iteration guess.
          const std::size_t in_use =
              opts.live_bytes
                  ? opts.live_bytes()
                  : static_cast<std::size_t>(next - low) *
                        opts.bytes_per_iteration;
          peak_bytes = std::max(peak_bytes, in_use);
          const long before = window;
          window = ctl.adjust(window, next - low, in_use);
          if (window != before) WLP_TRACE_COUNTER("window.size", window);
        }
      }

      long exit_at = std::numeric_limits<long>::max();
      note_exit(body(i, vpn), i, exit_at, quit);
      {
        std::lock_guard lock(mu);
        trip_candidate = std::min(trip_candidate, exit_at);
        done[static_cast<std::size_t>(i)] = 1;
        while (low < u && done[static_cast<std::size_t>(low)]) ++low;
      }
      cv.notify_all();
    }
  });

  // The backups keep growing after the final claim (bodies still running):
  // poll the measured footprint once more after the join so the reported
  // peak covers the post-claim growth the in-claim polls cannot see.
  if (opts.memory_budget != 0 && opts.live_bytes)
    peak_bytes = std::max(peak_bytes, opts.live_bytes());
  ctl.release();

  wr.exec.trip = std::min(trip_candidate, u);
  wr.exec.started = started;
  wr.exec.overshot = std::max(0L, started - wr.exec.trip);
  wr.max_span = max_span;
  wr.final_window = window;
  wr.peak_stamp_bytes = peak_bytes;
  wr.exec.peak_spec_bytes = peak_bytes;
  wr.window_shrinks = ctl.shrinks();
  wr.window_grows = ctl.grows();
  wr.final_cap = ctl.cap();
  wr.cap_bytes = ctl.cap_bytes();
  WLP_OBS_COUNT("wlp.window.runs", 1);
  WLP_OBS_HIST("wlp.window.span", max_span);
  WLP_OBS_HIST("wlp.window.overshoot", wr.exec.overshot);
  WLP_OBS_GAUGE_SET("wlp.window.final_size", window);
  if (opts.memory_budget != 0) {
    WLP_OBS_COUNT("wlp.window.shrinks", wr.window_shrinks);
    WLP_OBS_COUNT("wlp.window.grows", wr.window_grows);
    WLP_OBS_GAUGE_SET("wlp.window.cap_bytes",
                      static_cast<long>(wr.cap_bytes));
  }
}

}  // namespace detail

/// Execute `body(i, vpn) -> IterAction` over [0, u) with windowed dynamic
/// self-scheduling.  Honors QUIT like the other methods.
template <class Body>
WindowReport sliding_window_while(ThreadPool& pool, long u, Body&& body,
                                  WindowOptions opts = {}) {
  WindowController ctl(opts.min_window, opts.max_window, opts.memory_budget,
                       opts.bytes_per_iteration, opts.charge_process_budget);
  WindowReport wr;
  detail::window_run(pool, u, body, opts, ctl, wr);
  return wr;
}

/// Windowed execution of a loop whose accesses are NOT proven independent:
/// Section 8.2's scheduler inside one Section 5 SpecRound.  The window
/// bounds write-log memory during the speculative run; the PD analysis
/// (trip-filtered) then validates it like any other speculative execution.
///
/// `body(i, vpn) -> IterAction` must route accesses through the registered
/// targets (begin_iteration first); `run_sequential() -> trip` is the
/// fallback after a full restore.  Retries against the same targets are
/// cheap: reset_marks() is an O(1) epoch bump plus a rewind of the logs.
template <class Body, class SeqRun>
WindowReport sliding_window_speculative_while(
    ThreadPool& pool, long u, std::span<SpecTarget* const> targets,
    Body&& body, SeqRun&& run_sequential, WindowOptions wopts = {}) {
  WLP_TRACE_SCOPE("window.spec", u, wopts.window);
  // Transaction-aware control: the controller is the transaction's
  // footprint listener (so it outlives the round), and a member flipping
  // backends mid-run (a step jump in memory_bytes() the per-claim poll can
  // miss) clamps the window on the very next claim.
  WindowController ctl(wopts.min_window, wopts.max_window,
                       wopts.memory_budget, wopts.bytes_per_iteration,
                       wopts.charge_process_budget);
  WindowReport wr;
  SpecRound round(pool, targets, wr.exec, wopts.verdict_cache);
  round.begin();
  round.txn().set_footprint_listener(&ctl);
  // Feed the budget controller the backups' MEASURED footprint (Section 8.2
  // against real bytes): sparse targets grow as locations are touched, so
  // the window shrinks when the backup — not a guess — nears the budget.
  // The transaction sums its members.
  if (wopts.memory_budget != 0 && !wopts.live_bytes)
    wopts.live_bytes = [&round] { return round.txn().memory_bytes(); };
  round.run([&] { detail::window_run(pool, u, body, wopts, ctl, wr); });

  if (round.validate(0, wr.exec.trip)) {
    round.commit(wr.exec.trip);
    return wr;
  }
  wr.exec.trip = round.rollback(run_sequential);
  // The sequential rerun redefines the trip; the overshoot (speculative
  // bodies at or past it, all rolled back by the restore) must be
  // recomputed against it, not left at the abandoned speculative value.
  wr.exec.overshot = std::max(0L, wr.exec.started - wr.exec.trip);
  assert(wr.exec.trip >= 0);
  assert(wr.exec.overshot <= wr.exec.started);
  return wr;
}

}  // namespace wlp
