// DOACROSS pipelining — the Wu & Lewis (ICPP 1990) execution model and the
// paper's fallback for sequential blocks after loop distribution (Section 6).
//
// Each iteration is split into a *sequential phase* (the recurrence /
// dispatcher step, which must observe program order) and a *parallel phase*
// (the remainder).  Iteration i's sequential phase waits on iteration i-1's
// completion; parallel phases overlap freely.  Because the sequential
// phases run in program order, a DOACROSS WHILE loop never overshoots —
// which is also why it forfeits the parallelism the paper's speculative
// methods recover.
//
// Wait-chain design (the cross-iteration rendezvous every link pays):
//
//   * One **frontier word** replaces the seed's per-iteration flag vector.
//     The 32-bit futex-capable word holds the count of consecutively
//     completed sequential phases: iteration i runs its sequential phase
//     when `frontier == i`, its parallel phase once `frontier > i`.  A
//     terminated chain stores `kStopBit | s` (seq(s) saw the termination
//     condition): iterations below s still run their parallel phase,
//     everything at or above s returns.  One word means one cache line for
//     the whole chain — the seed's 1-byte flags packed 64 iterations per
//     line and every sequential-phase store ping-ponged that line under
//     all nearby waiters.
//   * **Park, don't just spin.**  Waiters escalate through the shared
//     Backoff (pause bursts, then yield) and, once `should_park()` fires,
//     sleep in FUTEX_WAIT on the frontier word itself (the pool's parking
//     primitive, detail::futex_wait_u32).  On an oversubscribed host the
//     spin budget is zero — spinning there steals cycles from exactly the
//     thread executing the sequential phase being waited on.
//   * **Batched publication.**  The frontier owner (the thread whose
//     iteration the frontier points at) runs its sequential phase and then
//     keeps helping: while the next iteration is already claimed (its
//     claimant is — or soon will be — waiting on the frontier), the owner
//     runs that sequential phase too, up to kMaxSeqBatch links, and then
//     publishes the whole run with a single store plus (at most) one futex
//     broadcast.  Claimants woken by the batch observe `frontier > i` and
//     skip straight to their parallel phase.  Exactly-once execution of
//     each sequential phase holds because a claimant runs seq(i) only after
//     observing `frontier == i`, and the owner never publishes intermediate
//     values inside a batch.
//   * **Wake elision.**  Publication stores the frontier seq_cst and reads
//     a seq_cst waiter count; the broadcast syscall is skipped when nobody
//     is parked.  A waiter increments the count, re-checks the frontier
//     seq_cst, and only then sleeps — the same protocol as the pool's
//     doorbell, race-free because FUTEX_WAIT re-checks the word value in
//     the kernel.
//   * **Per-call state.**  The chain state is O(1) words plus one padded
//     wait-stat slot per virtual processor (the pipeline depth), built in
//     the call as doall_quit builds its per-worker minima: one O(p) heap
//     allocation per call and nothing that grows with max_iters, so a loop
//     that exits after a handful of iterations pays no O(max_iters)
//     allocation or zero-fill.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/backoff.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

struct DoacrossResult {
  long trip = 0;  ///< iterations whose parallel phase executed
  std::uint64_t wait_rounds = 0;  ///< backoff rounds summed over all waits
  std::uint64_t parks = 0;        ///< futex sleeps summed over all waits
  std::uint64_t publishes = 0;    ///< frontier advances (< trip ⇒ batching)
};

namespace detail {

// Frontier encoding: plain values count completed sequential phases;
// kStopBit | s marks termination at iteration s.  Plain values therefore
// must stay below kStopBit, which bounds one pipeline window; longer loops
// run as back-to-back windows (doacross_while below) — at 2^30 iterations
// per window the outer loop is unreachable in practice.
inline constexpr std::uint32_t kStopBit = 0x80000000u;
inline constexpr long kFrontierWindow = 1L << 30;

// How many consecutive sequential phases the frontier owner runs before it
// must publish.  Helping removes the cross-thread handoff (wake + context
// switch) from the chain's critical path and amortizes one broadcast over
// the whole run; the cap bounds how long already-satisfied waiters can be
// held parked before their parallel phases are released.
inline constexpr long kMaxSeqBatch = 8;

/// The per-call rendezvous state.  One cache line for the frontier (every
/// waiter hammers it), one for the waiter count (every parking waiter
/// mutates it), one for the claim counter, plus a padded wait-stat slot per
/// virtual processor (each written only by the thread running that vpn's
/// share).
class DoacrossChain {
 public:
  struct Slot {
    std::uint64_t rounds = 0;
    std::uint64_t parks = 0;
    std::uint64_t publishes = 0;
  };

  explicit DoacrossChain(unsigned p) : slots_(p) {}

  /// Arm the chain for a window of `win` iterations.  The wait-stat slots
  /// keep counting across windows.
  void begin_window(long win) noexcept {
    frontier_.store(0, std::memory_order_relaxed);
    waiters_.store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    trip_.store(win, std::memory_order_relaxed);
  }

  Slot& slot(unsigned vpn) noexcept { return slots_[vpn]; }

  long claim() noexcept { return next_.fetch_add(1, std::memory_order_relaxed); }
  long claimed_watermark() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  std::uint32_t frontier_acquire() const noexcept {
    return frontier_.load(std::memory_order_acquire);
  }

  /// Publish a new frontier value and wake every parked waiter with one
  /// broadcast — elided entirely when the waiter count says nobody sleeps.
  void publish(std::uint32_t v) noexcept {
    frontier_.store(v, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0)
      futex_wake_u32(frontier_, 0x7fffffff);
  }

  /// One park attempt: advertise, re-check, sleep.  Returns after any wake
  /// (including spurious); the caller re-evaluates the frontier.
  void park(std::uint32_t seen) noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (frontier_.load(std::memory_order_seq_cst) == seen)
      futex_wait_u32(frontier_, seen);
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void record_stop(long s) noexcept {
    trip_.store(s, std::memory_order_relaxed);  // read after the join only
  }
  long trip() const noexcept { return trip_.load(std::memory_order_relaxed); }

  /// Fold every window's wait stats into `r`.  Called after the last join;
  /// no shares are in flight.
  void accumulate(DoacrossResult& r) const noexcept {
    for (std::size_t vpn = 0; vpn < slots_.size(); ++vpn) {
      r.wait_rounds += slots_[vpn].rounds;
      r.parks += slots_[vpn].parks;
      r.publishes += slots_[vpn].publishes;
    }
  }

 private:
  alignas(kCacheLine) std::atomic<std::uint32_t> frontier_{0};
  alignas(kCacheLine) std::atomic<std::uint32_t> waiters_{0};
  alignas(kCacheLine) std::atomic<long> next_{0};
  std::atomic<long> trip_{0};
  PerWorker<Slot> slots_;
};

/// One pipeline window over local iterations [0, win); global iteration
/// numbers are base + local.  Returns the window's trip (== win when no
/// stop fired).
template <class Seq, class Par>
long doacross_window(ThreadPool& pool, DoacrossChain& st, long base, long win,
                     unsigned spin_limit, Seq& seq, Par& par) {
  WLP_TRACE_SCOPE("doacross.run", win, pool.size());
  pool.parallel([&](unsigned vpn) {
    DoacrossChain::Slot& slot = st.slot(vpn);
    for (;;) {
      const long i = st.claim();
      if (i >= win) return;
      const std::uint32_t me = static_cast<std::uint32_t>(i);

      // Wait until the frontier reaches us (our turn to run seq), passes us
      // (a helping owner ran seq(i) already), or stops.  Stop values have
      // the top bit set, so the unsigned compare exits on them too.
      std::uint32_t f = st.frontier_acquire();
      if (f < me) {
        WLP_TRACE_SCOPE("doacross.wait", i, vpn);
        Backoff b(spin_limit);
        do {
          if (b.should_park()) {
            st.park(f);
            b.note_park();
          } else {
            b.pause();
          }
          f = st.frontier_acquire();
        } while (f < me);
        slot.rounds += b.rounds();
        slot.parks += b.parks();
        WLP_OBS_HIST("wlp.doacross.wait_rounds", b.rounds());
        if (b.parks() != 0) WLP_OBS_COUNT("wlp.doacross.parks", b.parks());
      }

      if ((f & kStopBit) != 0) {
        const long s = static_cast<long>(f & ~kStopBit);
        if (i >= s) return;   // chain terminated before our iteration
        par(base + i, vpn);   // seq(i) completed before the stop was reached
        continue;
      }

      if (f == me) {
        // We own the frontier.  Run our sequential phase, then help every
        // consecutively claimed successor (batch-bounded) so the whole run
        // is published with one store and at most one broadcast.
        long j = i;
        bool stopped = false;
        for (;;) {
          if (!seq(base + j)) {
            st.record_stop(j);
            st.publish(kStopBit | static_cast<std::uint32_t>(j));
            stopped = true;
            break;
          }
          ++j;
          if (j >= win || j - i >= kMaxSeqBatch ||
              st.claimed_watermark() <= j) {
            st.publish(static_cast<std::uint32_t>(j));
            break;
          }
          // Iteration j is already claimed: its claimant runs only the
          // parallel phase once it sees the batched frontier advance.
        }
        ++slot.publishes;
        if (stopped && j == i) return;  // our own seq terminated: no par(i)
      }
      // f > me (helped) or we just ran/help-ran seq(i) successfully.
      par(base + i, vpn);
    }
  });
  return st.trip();
}

/// The window-loop body of doacross_while, with the window size as a
/// parameter so tests can exercise the multi-window path without running
/// 2^30 iterations.  `window` must stay below kStopBit.
template <class Seq, class Par>
DoacrossResult doacross_run(ThreadPool& pool, long max_iters, long window,
                            unsigned spin_limit, Seq&& seq, Par&& par) {
  DoacrossResult res;
  if (max_iters <= 0) return res;

  DoacrossChain st(pool.size());
  for (long bas = 0; bas < max_iters; bas += window) {
    const long win = std::min(max_iters - bas, window);
    st.begin_window(win);
    const long t = doacross_window(pool, st, bas, win, spin_limit, seq, par);
    res.trip = bas + t;
    if (t < win) break;  // the termination condition fired in this window
  }
  st.accumulate(res);

  WLP_OBS_COUNT("wlp.doacross.runs", 1);
  WLP_OBS_COUNT("wlp.doacross.iters", res.trip);
  WLP_OBS_COUNT("wlp.doacross.publishes", res.publishes);
  return res;
}

}  // namespace detail

/// Pipelined WHILE loop over at most `max_iters` iterations.
///
/// `seq(i) -> bool` runs in strict iteration order; returning false means the
/// termination condition held at iteration i (iteration i's parallel phase
/// does not run and no later iteration starts).  `par(i, vpn)` is the
/// independent remainder.  Iterations are claimed dynamically, so the
/// pipeline depth is the pool size.
///
/// Note for callers staging values from seq to par: claimed-but-UNRETIRED
/// iterations are bounded by pool.size(), but that alone does NOT make a
/// pool.size()-slot ring safe — an intermediate iteration can retire while
/// an older par() is still reading its slot, after which seq(i + slots) is
/// free to claim and overwrite it.  Ring reuse needs an explicit hand-off
/// (per-slot tickets: the par phase copies the staged value out and
/// releases the slot before running the body — see core/wu_lewis.hpp).
template <class Seq, class Par>
DoacrossResult doacross_while(ThreadPool& pool, long max_iters, Seq&& seq,
                              Par&& par) {
  // Park immediately when the pool is oversubscribed; spin first otherwise.
  const unsigned spin = pool.oversubscribed() ? 0 : Backoff::kDefaultSpinLimit;
  return detail::doacross_run(pool, max_iters, detail::kFrontierWindow, spin,
                              std::forward<Seq>(seq), std::forward<Par>(par));
}

}  // namespace wlp
