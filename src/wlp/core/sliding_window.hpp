// Resource-controlled self-scheduling — Section 8.2.
//
// A sliding window of size w bounds the spread between the minimum
// not-yet-completed iteration l and the maximum issued iteration h:
// h - l <= w at all times, so the time-stamp memory (here, write-log
// entries) is bounded by w times the writes per iteration *without* the
// rigid global barriers of strip-mining.
//
// Two drivers share one scheduler, detail::window_run:
//   * sliding_window_while keeps the bound with a fixed window: a loop
//     with no targets pins nothing to measure.
//   * sliding_window_speculative_while runs it inside one SpecRound and
//     adjusts the window against a memory budget (DESIGN.md §10).  Its one
//     footprint is what the round pins, SpecRound::memory_bytes(), polled
//     at every claim: the controller keeps an EWMA of it per in-flight
//     iteration, re-derives the hard cap budget / EWMA, and moves the
//     window inside that cap.  A round pins its data, backups and logs
//     until it commits, so the footprint only grows during a run.
#pragma once

#include <algorithm>
#include <condition_variable>
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
  std::size_t memory_budget = 0;  ///< bytes the round may pin; 0 = fixed window
};

/// The measured-footprint budget controller: one instance per speculative
/// windowed run.  With a budget, adjust() runs under the issue lock at
/// every claim.
class WindowController {
 public:
  WindowController(long min_window, long max_window, std::size_t budget)
      : min_w_(std::max(1L, min_window)),
        max_w_(std::max(min_w_, max_window)),
        budget_(budget) {
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
  // Controller decisions (zero when no memory_budget was set).
  long window_shrinks = 0;     ///< multiplicative-decrease decisions
  long window_grows = 0;       ///< additive-increase decisions
  long final_cap = 0;          ///< derived hard cap at the end of the run
  std::size_t cap_bytes = 0;   ///< bytes that cap represents (EWMA estimate)
};

namespace detail {

/// The windowed self-scheduling loop over [0, u), starting from a window
/// of `window` iterations (at least 1) and writing into `wr`.  Every claim
/// sets the window to `adjust(window, span)` under the issue lock.
template <class Body, class Adjust>
void window_run(ThreadPool& pool, long u, Body& body, long window,
                Adjust&& adjust, WindowReport& wr) {
  wr.exec.method = Method::kSlidingWindow;
  if (u <= 0) return;
  WLP_TRACE_SCOPE("window.run", u, window);
  // A window below 1 would leave every worker waiting on next - low < 0.
  window = std::max(1L, window);

  std::mutex mu;
  std::condition_variable cv;
  long next = 0;  // next iteration to issue
  long low = 0;   // min iteration not yet completed
  std::vector<unsigned char> done(static_cast<std::size_t>(u), 0);
  QuitBound quit;
  long trip_candidate = std::numeric_limits<long>::max();
  long started = 0;
  long max_span = 0;

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
        const long before = window;
        window = adjust(window, next - low);
        if (window != before) WLP_TRACE_COUNTER("window.size", window);
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

  wr.exec.trip = std::min(trip_candidate, u);
  wr.exec.started = started;
  wr.exec.overshot = std::max(0L, started - wr.exec.trip);
  wr.max_span = max_span;
  wr.final_window = window;
  WLP_OBS_COUNT("wlp.window.runs", 1);
  WLP_OBS_HIST("wlp.window.span", max_span);
  WLP_OBS_HIST("wlp.window.overshoot", wr.exec.overshot);
  WLP_OBS_GAUGE_SET("wlp.window.final_size", window);
}

}  // namespace detail

/// Execute `body(i, vpn) -> IterAction` over [0, u) with windowed dynamic
/// self-scheduling under a fixed window of `window` iterations (at least
/// 1).  Honors QUIT like the other methods.
template <class Body>
WindowReport sliding_window_while(ThreadPool& pool, long u, Body&& body,
                                  long window) {
  WindowReport wr;
  detail::window_run(pool, u, body, window, [](long w, long) { return w; },
                     wr);
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
  WindowController ctl(wopts.min_window, wopts.max_window,
                       wopts.memory_budget);
  const bool budgeted = wopts.memory_budget != 0;
  round.begin();
  // The budget reads what the round pins (Section 8.2 against real bytes):
  // sparse targets grow as locations are touched, dense ones as their logs
  // open segments, so the window shrinks when the backups near the budget.
  round.run([&] {
    detail::window_run(
        pool, u, body,
        std::clamp(wopts.window, wopts.min_window, ctl.cap()),
        [&](long w, long span) {
          return budgeted ? ctl.adjust(w, span, round.memory_bytes()) : w;
        },
        wr);
  });
  wr.window_shrinks = ctl.shrinks();
  wr.window_grows = ctl.grows();
  wr.final_cap = ctl.cap();
  wr.cap_bytes = ctl.cap_bytes();
  if (budgeted) {
    WLP_OBS_COUNT("wlp.window.shrinks", wr.window_shrinks);
    WLP_OBS_COUNT("wlp.window.grows", wr.window_grows);
    WLP_OBS_GAUGE_SET("wlp.window.cap_bytes", static_cast<long>(wr.cap_bytes));
  }

  if (round.validate(wr.exec.trip))
    round.commit(wr.exec.trip);
  else
    wr.exec.trip = round.rollback(run_sequential);
  return wr;
}

}  // namespace wlp
