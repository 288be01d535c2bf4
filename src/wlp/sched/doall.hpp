// DOALL scheduling with Alliant-style QUIT semantics.
//
// The paper's transformed WHILE loops all execute as DOALLs over an upper
// bound `u` of the iteration space, with each processor recording the lowest
// iteration on which it observed the termination condition (Figure 2).  A
// QUIT issued by iteration q guarantees that no iteration with a larger loop
// counter is *begun* after the QUIT lands; iterations already in flight may
// complete (that is exactly the overshoot the undo machinery handles).
//
// Four schedules are provided:
//   * kDynamic      — self-scheduled from a shared counter (iterations are
//                     therefore *issued in order*, like the Alliant FX/80).
//                     With `chunk` 0 (the default) each worker sizes its own
//                     claim blocks from measured time (ClaimBlock below);
//                     with `chunk` > 0 every claim takes exactly `chunk`.
//   * kStaticCyclic — iteration i goes to processor i mod p (General-2's
//                     static assignment).
//   * kStaticBlock  — contiguous blocks of u/p iterations per processor.
//   * kGuided       — guided self-scheduling (Polychronopoulos & Kuck):
//                     each grab claims max(remaining/p, chunk) iterations,
//                     so contention on the shared counter decays
//                     geometrically while the tail still load-balances at
//                     `chunk` granularity.  Issue order stays monotone, so
//                     QUIT semantics are identical to kDynamic.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>

#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// What an iteration body tells the scheduler.
enum class IterAction {
  kContinue,   ///< keep going
  kExit,       ///< terminator held *before* this iteration's work: iteration
               ///< `i` itself is not part of the sequential execution
  kExitAfter,  ///< conditional exit taken *after* this iteration's work:
               ///< iteration `i` is the last valid one
};

enum class Sched { kDynamic, kStaticCyclic, kStaticBlock, kGuided };

struct DoallOptions {
  Sched sched = Sched::kDynamic;
  long chunk = 0;       ///< claim granularity for kDynamic (0 = self-sized
                        ///< blocks); floor for kGuided (0 counts as 1)
  bool use_quit = true; ///< honor the QUIT (false = machines without it:
                        ///< every iteration in [lo, u) executes, as in the
                        ///< unoptimized Induction-1 of Fig. 2)
};

/// Shared monotonically-decreasing cut bound (the QUIT).
class QuitBound {
 public:
  /// Record that iteration `i` requested termination.
  void quit(long i) noexcept {
    long cur = bound_.load(std::memory_order_relaxed);
    while (i < cur &&
           !bound_.compare_exchange_weak(cur, i, std::memory_order_acq_rel)) {
    }
  }

  /// True if iteration `i` must not be begun.
  bool cut(long i) const noexcept {
    return i >= bound_.load(std::memory_order_acquire);
  }

  long bound() const noexcept { return bound_.load(std::memory_order_acquire); }

  static constexpr long kUnset = std::numeric_limits<long>::max();

 private:
  std::atomic<long> bound_{kUnset};
};

struct QuitResult {
  long trip = 0;     ///< sequential trip count (first invalid iteration index)
  long started = 0;  ///< iterations whose body actually ran in the parallel run
  long claims = 0;   ///< grabs against the shared counter (1 per worker for
                     ///< the static schedules) — the contention metric the
                     ///< guided schedule exists to shrink
};

/// Target wall time of one self-sized claim block (kDynamic with chunk 0,
/// General-3).  A claim costs one fetch_add on the shared counter (8 ns
/// alone, 20-60 ns with 3-4 workers contending, on a 4-vCPU KVM guest) plus
/// one steady_clock read (33 ns there): 40-90 ns per block.  Blocks of
/// 8 us keep that near 1 % of the work or below.  Under an RV exit the
/// blocks in flight when the QUIT lands bound the overshoot at about
/// p x kBlockTarget of work.
inline constexpr std::chrono::nanoseconds kBlockTarget{8000};

namespace detail {

/// One worker's claim size under kDynamic and General-3.  A fixed `chunk`
/// (> 0) is claimed as is and the clock is never read.  With `chunk` 0 the
/// first block holds one iteration, and each later one doubles the last
/// while that took less than kBlockTarget.  The clock is read once per
/// claim: the end of one block is the start of the next, so the time also
/// covers the claim itself.
class ClaimBlock {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ClaimBlock(long chunk) noexcept
      : size_(std::max(chunk, 1L)), timed_(chunk <= 0) {
    if (timed_) start_ = Clock::now();
  }

  long size() const noexcept { return size_; }

  /// The next claim over a finite range: a self-sized block is capped at
  /// 1/(2p) of the `left()` iterations nobody has claimed yet, so the tail
  /// still balances.  `left` is not called for a fixed chunk.
  template <class Left>
  long take(unsigned p, Left&& left) const {
    if (!timed_) return size_;
    return std::clamp(left() / (2 * static_cast<long>(p)), 1L, size_);
  }

  /// The block just claimed held `taken` iterations, and all of them ran.
  void ran(long taken) noexcept {
    if (!timed_) return;
    const Clock::time_point now = Clock::now();
    size_ = now - start_ < kBlockTarget ? 2 * taken : taken;
    start_ = now;
  }

 private:
  long size_;
  bool timed_;
  Clock::time_point start_{};
};

/// Applies iteration `i`'s verdict: an exit lowers the worker's exit
/// minimum `trip` (the paper's L[vpn]) and lands the QUIT at once, so other
/// workers stop issuing before the exiting worker's block ends.
inline void note_exit(IterAction act, long i, long& trip, QuitBound& quit) noexcept {
  if (act == IterAction::kContinue) return;
  const long at = act == IterAction::kExit ? i : i + 1;
  trip = std::min(trip, at);
  quit.quit(at);
}

/// The block runner: runs the claimed iterations first, first + stride, ...
/// below `end` on worker `vpn`.  The QUIT is checked before every iteration
/// after the first (a caller that must also check the first does so itself),
/// and an exit lands the QUIT at once; the started count and the exit
/// minimum stay in locals and are added to `started` and `trip` once, at the
/// end.  Returns false when the QUIT cut the block short.
///
/// Kept out of line on purpose: the body is inlined here, away from the
/// claim loop, so the claim state cannot crowd the body's registers however
/// a schedule's claim loop is written (DESIGN.md §6 has the measurements of
/// merged variants).  `noclone` keeps one copy per body: GCC otherwise
/// clones the runner for the schedules that pass stride 1, the body then has
/// two call sites, and a large body stays out of line, one call per
/// iteration.
template <class Body>
[[gnu::noinline, gnu::noclone]] bool run_block(Body& body, long first, long end,
                                               long stride, unsigned vpn,
                                               QuitBound& quit, bool use_quit,
                                               long& started, long& trip) {
  long ran = 0;
  long exit_min = std::numeric_limits<long>::max();
  bool whole = true;
  for (long i = first; i < end; i += stride) {
    if (i > first && use_quit && quit.cut(i)) {
      whole = false;
      break;
    }
    ++ran;
    note_exit(body(i, vpn), i, exit_min, quit);
  }
  started += ran;
  trip = std::min(trip, exit_min);
  return whole;
}

/// Runs `body(i, vpn) -> IterAction` over [lo, u) under `opts`, honoring the
/// QUIT.  Returns per the contract of doall_quit below.  Every schedule runs
/// each claimed block through run_block; under the static schedules a block
/// is a worker's whole share.
template <class Body>
QuitResult doall_quit_impl(ThreadPool& pool, long lo, long u, Body&& body,
                           const DoallOptions& opts) {
  const unsigned p = pool.size();
  // The QUIT bound and the claim counter each get a cache line of their
  // own: every worker polls the one and hammers the other.
  Padded<QuitBound> quit;
  // cut(i) respects opts.use_quit: a machine without QUIT executes every
  // iteration in [lo, u) and relies purely on the post-loop min-reduction.
  const auto cut = [&](long i) { return opts.use_quit && quit->cut(i); };
  // Per-processor minimum candidate trip count (the paper's L[vpn], Fig. 2),
  // and per-processor started-iteration counts.
  PerWorker<long> local_trip(p, std::numeric_limits<long>::max());
  PerWorker<long> local_started(p, 0);
  PerWorker<long> local_claims(p, 0);
  Padded<std::atomic<long>> next;
  next->store(lo, std::memory_order_relaxed);

  // Runs [first, end) by `stride` on worker vpn; false once the QUIT cut it.
  const auto run = [&](long first, long end, long stride, unsigned vpn) {
    return run_block(body, first, end, stride, vpn, *quit, opts.use_quit,
                     local_started[vpn], local_trip[vpn]);
  };

  const long chunk = opts.chunk > 0 ? opts.chunk : 1;
  switch (opts.sched) {
    case Sched::kDynamic:
      pool.parallel([&](unsigned vpn) {
        ClaimBlock blk(opts.chunk);
        for (;;) {
          const long take = blk.take(
              p, [&] { return u - next->load(std::memory_order_relaxed); });
          const long base = next->fetch_add(take, std::memory_order_relaxed);
          if (base >= u || cut(base)) return;
          ++local_claims[vpn];
          WLP_TRACE_SCOPE("claim", base, take);
          const long end = std::min(base + take, u);
          if (!run(base, end, 1, vpn)) return;
          blk.ran(end - base);
        }
      });
      break;
    case Sched::kGuided:
      pool.parallel([&](unsigned vpn) {
        for (;;) {
          long base = next->load(std::memory_order_relaxed);
          long take;
          do {
            if (base >= u || cut(base)) return;
            take = std::max(chunk, (u - base) / static_cast<long>(p));
          } while (!next->compare_exchange_weak(base, base + take,
                                                std::memory_order_relaxed));
          ++local_claims[vpn];
          WLP_TRACE_SCOPE("claim", base, take);
          if (!run(base, std::min(base + take, u), 1, vpn)) return;
        }
      });
      break;
    case Sched::kStaticCyclic:
      pool.parallel([&](unsigned vpn) {
        const long first = lo + vpn;
        if (first < u) ++local_claims[vpn];
        WLP_TRACE_SCOPE("claim", first, u - lo);
        if (!cut(first)) run(first, u, p, vpn);
      });
      break;
    case Sched::kStaticBlock:
      pool.parallel([&](unsigned vpn) {
        const long n = u - lo;
        const long blk = (n + p - 1) / p;
        const long b = lo + static_cast<long>(vpn) * blk;
        const long e = std::min(b + blk, u);
        if (b < e) ++local_claims[vpn];
        WLP_TRACE_SCOPE("claim", b, e - b);
        if (!cut(b)) run(b, e, 1, vpn);
      });
      break;
  }

  QuitResult r;
  const long min_candidate =
      local_trip.reduce(std::numeric_limits<long>::max(),
                        [](long a, long b) { return std::min(a, b); });
  r.trip = std::min(min_candidate, u);
  r.started = local_started.reduce(0L, [](long a, long b) { return a + b; });
  r.claims = local_claims.reduce(0L, [](long a, long b) { return a + b; });
  // Aggregated once per DOALL (never per iteration): the claim-contention
  // and overshoot figures the cost model's schedule choice is judged by.
  WLP_OBS_COUNT("wlp.doall.runs", 1);
  WLP_OBS_COUNT("wlp.doall.claims", r.claims);
  WLP_OBS_COUNT("wlp.doall.started", r.started);
  WLP_OBS_HIST("wlp.doall.overshoot", std::max(0L, r.started - r.trip));
  return r;
}

}  // namespace detail

/// Execute a WHILE loop body speculatively as a DOALL over [lo, u).
///
/// `body(i, vpn)` performs the termination test and the work for iteration
/// `i` and reports how the iteration ended.  The returned `trip` is the
/// sequential trip count: the minimum of `u` and all exit candidates, i.e.
/// exactly the iteration at which the original sequential loop would stop.
/// Iterations >= trip that ran anyway are the *overshoot*.
template <class Body>
QuitResult doall_quit(ThreadPool& pool, long lo, long u, Body&& body,
                      const DoallOptions& opts = {}) {
  return detail::doall_quit_impl(pool, lo, u, std::forward<Body>(body), opts);
}

/// Plain DOALL (no termination condition): body(i, vpn).
template <class Body>
void doall(ThreadPool& pool, long lo, long hi, Body&& body,
           const DoallOptions& opts = {}) {
  detail::doall_quit_impl(
      pool, lo, hi,
      [&](long i, unsigned vpn) {
        body(i, vpn);
        return IterAction::kContinue;
      },
      opts);
}

}  // namespace wlp
