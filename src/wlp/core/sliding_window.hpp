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
// The budget controller reads the round's MEASURED footprint (DESIGN.md
// §10): instead of capping the window once from a static
// bytes-per-iteration guess, it keeps an EWMA of the bytes the backups pin
// per in-flight iteration (live_bytes() / span, sampled at every claim) and
// re-derives the hard cap budget / EWMA live.
#pragma once

#include <algorithm>
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
  /// to SpecRound::memory_bytes(), the sum over its targets (sparse
  /// backups report their live touched set, dense ones data + backup +
  /// their opened log segments), so the window reacts to what the backups
  /// actually pinned.
  /// To throttle on the WHOLE process's arena footprint instead of one
  /// target set's, point it at mem::process_bytes_live.
  std::function<std::size_t()> live_bytes;
};

/// The measured-footprint budget controller: one instance per windowed run.
/// adjust() runs under the issue lock at every claim.
class WindowController {
 public:
  WindowController(long min_window, long max_window, std::size_t budget,
                   std::size_t seed_bytes_per_iter = 0)
      : min_w_(std::max(1L, min_window)),
        max_w_(std::max(min_w_, max_window)),
        budget_(budget) {
    if (seed_bytes_per_iter != 0)
      ewma_bpi_ = static_cast<double>(seed_bytes_per_iter);
    recompute_cap();
  }

  /// One budget decision: fold the measured bytes/iteration sample into the
  /// EWMA, re-derive the cap, and move the window — multiplicative decrease
  /// when occupancy approaches the budget, additive increase while
  /// comfortably under it, always inside the cap.  Returns the new window
  /// size.
  long adjust(long window, long span, std::size_t in_use) {
    if (budget_ == 0) return window;
    if (span > 0 && in_use > 0) {
      const double sample =
          static_cast<double>(in_use) / static_cast<double>(span);
      ewma_bpi_ = ewma_bpi_ <= 0.0
                      ? sample
                      : kAlpha * sample + (1.0 - kAlpha) * ewma_bpi_;
    }
    recompute_cap();
    long w = window;
    if (in_use * 2 > budget_) {
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
    if (ewma_bpi_ > 0.0)
      cap = static_cast<long>(static_cast<double>(budget_) / ewma_bpi_);
    cap_ = std::clamp(cap, min_w_, max_w_);
    cap_bytes_ = ewma_bpi_ > 0.0
                     ? static_cast<std::size_t>(ewma_bpi_ *
                                                static_cast<double>(cap_))
                     : budget_;
  }

  const long min_w_;
  const long max_w_;
  const std::size_t budget_;
  double ewma_bpi_ = 0.0;         ///< EWMA of measured bytes per iteration
  long cap_ = 0;                  ///< derived hard cap (iterations)
  std::size_t cap_bytes_ = 0;     ///< bytes cap_ represents under the EWMA
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

/// The windowed self-scheduling loop over [0, u), driven by one
/// controller per run and writing into `wr`.
template <class Body>
void window_run(ThreadPool& pool, long u, Body& body, const WindowOptions& opts,
                WindowReport& wr) {
  wr.exec.method = Method::kSlidingWindow;
  if (u <= 0) return;
  WLP_TRACE_SCOPE("window.run", u, opts.window);
  WindowController ctl(opts.min_window, opts.max_window, opts.memory_budget,
                       opts.bytes_per_iteration);

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
  WindowReport wr;
  detail::window_run(pool, u, body, opts, wr);
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
/// cheap: reset_marks() rewinds the PD and write logs in O(workers).
template <class Body, class SeqRun>
WindowReport sliding_window_speculative_while(
    ThreadPool& pool, long u, std::span<SpecTarget* const> targets,
    Body&& body, SeqRun&& run_sequential, WindowOptions wopts = {}) {
  WLP_TRACE_SCOPE("window.spec", u, wopts.window);
  WindowReport wr;
  SpecRound round(pool, targets, wr.exec);
  round.begin();
  // Feed the budget controller the backups' MEASURED footprint (Section 8.2
  // against real bytes): sparse targets grow as locations are touched, so
  // the window shrinks when the backup — not a guess — nears the budget.
  // The round sums its targets.
  if (wopts.memory_budget != 0 && !wopts.live_bytes)
    wopts.live_bytes = [&round] { return round.memory_bytes(); };
  round.run([&] { detail::window_run(pool, u, body, wopts, wr); });

  if (round.validate(wr.exec.trip)) {
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
