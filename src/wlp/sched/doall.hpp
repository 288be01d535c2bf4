// DOALL scheduling with Alliant-style QUIT semantics.
//
// The paper's transformed WHILE loops all execute as DOALLs over an upper
// bound `u` of the iteration space, with each processor recording the lowest
// iteration on which it observed the termination condition (Figure 2).  A
// QUIT issued by iteration q guarantees that no iteration with a larger loop
// counter is *begun* after the QUIT lands; iterations already in flight may
// complete (that is exactly the overshoot the undo machinery handles).
//
// One claim rule: the workers self-schedule from a shared counter, so
// iterations are *issued in order*, like the Alliant FX/80, and each worker
// sizes its own claim blocks from measured time (ClaimBlock below).
// General-2's static i mod p assignment is its own loop (while_general.hpp).
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
  long claims = 0;   ///< grabs against the shared counter — the contention
                     ///< metric the self-sized blocks exist to shrink
};

/// Target wall time of one self-sized claim block (doall_quit and
/// General-3).  A claim costs one fetch_add on the shared counter (8 ns
/// alone, 20-60 ns with 3-4 workers contending, on a 4-vCPU KVM guest) plus
/// one steady_clock read (33 ns there): 40-90 ns per block.  Blocks of
/// 8 us keep that near 1 % of the work or below.  Under an RV exit the
/// blocks in flight when the QUIT lands bound the overshoot at about
/// p x kBlockTarget of work.
inline constexpr std::chrono::nanoseconds kBlockTarget{8000};

namespace detail {

/// One worker's claim size in doall_quit and General-3.  The first block
/// holds one iteration, and each later one doubles the last while that took
/// less than kBlockTarget.  The clock is read once per claim: the end of one
/// block is the start of the next, so the time also covers the claim itself.
class ClaimBlock {
 public:
  using Clock = std::chrono::steady_clock;

  long size() const noexcept { return size_; }

  /// The next claim over a finite range: the block is capped at 1/(2p) of
  /// the `left` iterations nobody has claimed yet, so the tail still
  /// balances.
  long take(unsigned p, long left) const noexcept {
    return std::clamp(left / (2 * static_cast<long>(p)), 1L, size_);
  }

  /// The block just claimed held `taken` iterations, and all of them ran.
  void ran(long taken) noexcept {
    const Clock::time_point now = Clock::now();
    size_ = now - start_ < kBlockTarget ? 2 * taken : taken;
    start_ = now;
  }

 private:
  long size_ = 1;
  Clock::time_point start_ = Clock::now();
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

/// The block runner: runs the claimed iterations [first, end) on worker
/// `vpn`.  The QUIT is checked before every iteration after the first (the
/// claim checked the first), and an exit lands the QUIT at once; the started
/// count and the exit minimum stay in locals and are added to `started` and
/// `trip` once, at the end.  Returns false when the QUIT cut the block
/// short.
///
/// Kept out of line on purpose: the body is inlined here, away from the
/// claim loop, so the claim state cannot crowd the body's registers
/// (DESIGN.md §6 has the measurements of merged variants).  `noclone` keeps
/// one copy per body: a clone per constant argument would give the body two
/// call sites, and GCC then keeps a large body out of line, one call per
/// iteration.
template <class Body>
[[gnu::noinline, gnu::noclone]] bool run_block(Body& body, long first, long end,
                                               unsigned vpn, QuitBound& quit,
                                               bool use_quit, long& started,
                                               long& trip) {
  long ran = 0;
  long exit_min = std::numeric_limits<long>::max();
  bool whole = true;
  for (long i = first; i < end; ++i) {
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

}  // namespace detail

/// Execute a WHILE loop body speculatively as a DOALL over [lo, u).
///
/// `body(i, vpn)` performs the termination test and the work for iteration
/// `i` and reports how the iteration ended.  The returned `trip` is the
/// sequential trip count: the minimum of `u` and all exit candidates, i.e.
/// exactly the iteration at which the original sequential loop would stop.
/// Iterations >= trip that ran anyway are the *overshoot*.  `use_quit` =
/// false models a machine without the QUIT: every iteration in [lo, u)
/// executes, as in the unoptimized Induction-1 of Fig. 2, and the trip
/// comes from the post-loop min-reduction alone.
template <class Body>
QuitResult doall_quit(ThreadPool& pool, long lo, long u, Body&& body,
                      bool use_quit = true) {
  const unsigned p = pool.size();
  // The QUIT bound and the claim counter each get a cache line of their
  // own: every worker polls the one and hammers the other.
  Padded<QuitBound> quit;
  // Per-processor minimum candidate trip count (the paper's L[vpn], Fig. 2),
  // and per-processor started-iteration and claim counts.
  PerWorker<long> local_trip(p, std::numeric_limits<long>::max());
  PerWorker<long> local_started(p, 0);
  PerWorker<long> local_claims(p, 0);
  Padded<std::atomic<long>> next;
  next->store(lo, std::memory_order_relaxed);

  pool.parallel([&](unsigned vpn) {
    detail::ClaimBlock blk;
    for (;;) {
      const long take =
          blk.take(p, u - next->load(std::memory_order_relaxed));
      const long base = next->fetch_add(take, std::memory_order_relaxed);
      if (base >= u || (use_quit && quit->cut(base))) return;
      ++local_claims[vpn];
      WLP_TRACE_SCOPE("claim", base, take);
      const long end = std::min(base + take, u);
      if (!detail::run_block(body, base, end, vpn, *quit, use_quit,
                             local_started[vpn], local_trip[vpn]))
        return;
      blk.ran(end - base);
    }
  });

  QuitResult r;
  const long min_candidate =
      local_trip.reduce(std::numeric_limits<long>::max(),
                        [](long a, long b) { return std::min(a, b); });
  r.trip = std::min(min_candidate, u);
  r.started = local_started.reduce(0L, [](long a, long b) { return a + b; });
  r.claims = local_claims.reduce(0L, [](long a, long b) { return a + b; });
  // Aggregated once per DOALL (never per iteration): the claim-contention
  // and overshoot figures the claim rule is judged by.
  WLP_OBS_COUNT("wlp.doall.runs", 1);
  WLP_OBS_COUNT("wlp.doall.claims", r.claims);
  WLP_OBS_COUNT("wlp.doall.started", r.started);
  WLP_OBS_HIST("wlp.doall.overshoot", std::max(0L, r.started - r.trip));
  return r;
}

/// Plain DOALL (no termination condition): body(i, vpn).
template <class Body>
void doall(ThreadPool& pool, long lo, long hi, Body&& body) {
  doall_quit(pool, lo, hi, [&](long i, unsigned vpn) {
    body(i, vpn);
    return IterAction::kContinue;
  });
}

}  // namespace wlp
