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
//   * **Pooled chain state.**  The chain state is O(1) words plus one
//     padded wait-stat slot per virtual processor (the pipeline depth) —
//     pooled per calling thread and epoch-stamped (mem::EpochClock), so
//     a loop that exits after a handful
//     of iterations pays no O(max_iters) allocation or zero-fill, and
//     repeated calls allocate nothing at all.  The slot array itself is an
//     arena block (mem::local_arena), so even pool-width growth recycles
//     in O(1) and shows up in the wlp.mem counters, not in malloc.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "wlp/mem/arena.hpp"
#include "wlp/mem/epoch.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/backoff.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

struct DoacrossOptions {
  /// Sentinel: derive the spin budget from the pool — park immediately when
  /// the pool is oversubscribed, Backoff::kDefaultSpinLimit otherwise.
  static constexpr unsigned kAutoSpin = ~0u;
  unsigned spin_limit = kAutoSpin;  ///< backoff rounds before a waiter parks
};

struct DoacrossResult {
  long trip = 0;  ///< iterations whose parallel phase executed
  std::uint64_t wait_rounds = 0;  ///< backoff rounds summed over all waits
  std::uint64_t parks = 0;        ///< futex sleeps summed over all waits
  std::uint64_t publishes = 0;    ///< frontier advances (< trip ⇒ batching)
};

/// Calling-thread-local reuse counters for the pooled chain state — the
/// allocation-regression hook.
struct DoacrossChainStats {
  long chain_allocs = 0;  ///< chain-state objects ever constructed
  long slot_grows = 0;    ///< wait-slot array growths (pool got wider)
  long runs = 0;          ///< doacross_while calls served from the pool
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
/// virtual processor.  Slots are epoch-stamped: begin_window() bumps the
/// epoch instead of zeroing, and a slot lazily resets the first time its
/// vpn touches it in the new epoch (each slot is written by exactly the
/// thread executing that vpn's share, so the stamp check needs no atomics).
class DoacrossChain {
 public:
  struct Slot {
    std::uint32_t epoch = 0;
    std::uint64_t rounds = 0;
    std::uint64_t parks = 0;
    std::uint64_t publishes = 0;
  };

  DoacrossChain() = default;
  ~DoacrossChain() {
    if (slots_ != nullptr) arena_->deallocate_array(slots_, cap_);
  }
  DoacrossChain(const DoacrossChain&) = delete;
  DoacrossChain& operator=(const DoacrossChain&) = delete;

  /// Arm the chain for a window of `win` iterations on `p` virtual
  /// processors.  O(1) plus a one-time slot-array growth.
  void begin_window(unsigned p, long win, DoacrossChainStats& stats) {
    epoch_.bump([this] { sweep_slots(); });
    frontier_.store(0, std::memory_order_relaxed);
    waiters_.store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    trip_.store(win, std::memory_order_relaxed);
    if (cap_ < p) {
      grow_slots(p);
      ++stats.slot_grows;
    }
    nproc_ = p;
  }

  Slot& slot(unsigned vpn) noexcept {
    Slot& s = slots_[vpn].value;
    if (s.epoch != epoch_.value()) s = Slot{epoch_.value(), 0, 0, 0};
    return s;
  }

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

  /// Fold this window's wait stats (slots stamped with the current epoch)
  /// into `r`.  Called after the join; no shares are in flight.
  void accumulate(DoacrossResult& r) const noexcept {
    for (unsigned vpn = 0; vpn < nproc_; ++vpn) {
      const Slot& s = slots_[vpn].value;
      if (s.epoch != epoch_.value()) continue;
      r.wait_rounds += s.rounds;
      r.parks += s.parks;
      r.publishes += s.publishes;
    }
  }

 private:
  /// Replace the slot array with one of `p` slots from the calling
  /// thread's arena.  Runs right after the window's epoch bump, so every
  /// old slot is already stale — nothing to copy, the retired block just
  /// goes back to the free list for the next chain of this width.
  void grow_slots(unsigned p) {
    if (arena_ == nullptr) arena_ = &mem::local_arena();
    if (slots_ != nullptr) arena_->deallocate_array(slots_, cap_);
    slots_ = arena_->allocate_array<Padded<Slot>>(p);
    for (unsigned i = 0; i < p; ++i) new (&slots_[i]) Padded<Slot>();
    cap_ = p;
  }

  /// 32-bit epoch wrap (once per 2^32 windows): unstamp every slot so no
  /// survivor can alias the restarted counter.
  void sweep_slots() noexcept {
    for (unsigned i = 0; i < cap_; ++i) slots_[i].value.epoch = 0;
  }

  alignas(kCacheLine) std::atomic<std::uint32_t> frontier_{0};
  alignas(kCacheLine) std::atomic<std::uint32_t> waiters_{0};
  alignas(kCacheLine) std::atomic<long> next_{0};
  std::atomic<long> trip_{0};
  Padded<Slot>* slots_ = nullptr;  ///< arena block, cap_ wait-stat slots
  mem::Arena* arena_ = nullptr;    ///< pinned so free pairs with alloc
  unsigned cap_ = 0;
  mem::EpochClock epoch_;
  unsigned nproc_ = 0;
};

struct DoacrossChainPool {
  std::vector<std::unique_ptr<DoacrossChain>> chains;
  unsigned depth = 0;  ///< live leases (nested doacross on one thread)
  DoacrossChainStats stats;
};

inline DoacrossChainPool& doacross_tl_pool() {
  static thread_local DoacrossChainPool pool;
  return pool;
}

/// Lease one pooled chain for the duration of a doacross_while call.  The
/// pool is thread-local to the *calling* thread (the pool substrate allows
/// one fork-join at a time, so two concurrent leases on one thread can only
/// mean a nested doacross — which gets the next pool slot, not a fresh
/// allocation on every call).
class DoacrossChainLease {
 public:
  DoacrossChainLease() : pool_(doacross_tl_pool()) {
    if (pool_.chains.size() <= pool_.depth) {
      pool_.chains.push_back(std::make_unique<DoacrossChain>());
      ++pool_.stats.chain_allocs;
    }
    chain_ = pool_.chains[pool_.depth].get();
    ++pool_.depth;
    ++pool_.stats.runs;
  }
  ~DoacrossChainLease() { --pool_.depth; }

  DoacrossChainLease(const DoacrossChainLease&) = delete;
  DoacrossChainLease& operator=(const DoacrossChainLease&) = delete;

  DoacrossChain& chain() noexcept { return *chain_; }
  DoacrossChainStats& stats() noexcept { return pool_.stats; }

 private:
  DoacrossChainPool& pool_;
  DoacrossChain* chain_ = nullptr;
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

  DoacrossChainLease lease;
  DoacrossChain& st = lease.chain();

  for (long bas = 0; bas < max_iters; bas += window) {
    const long win = std::min(max_iters - bas, window);
    st.begin_window(pool.size(), win, lease.stats());
    const long t = doacross_window(pool, st, bas, win, spin_limit, seq, par);
    st.accumulate(res);
    res.trip = bas + t;
    if (t < win) break;  // the termination condition fired in this window
  }

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
                              Par&& par, DoacrossOptions opts = {}) {
  unsigned spin = opts.spin_limit;
  if (spin == DoacrossOptions::kAutoSpin)
    spin = pool.oversubscribed() ? 0 : Backoff::kDefaultSpinLimit;
  return detail::doacross_run(pool, max_iters, detail::kFrontierWindow, spin,
                              std::forward<Seq>(seq), std::forward<Par>(par));
}

/// Reuse counters of the calling thread's pooled chain state.
inline DoacrossChainStats doacross_chain_stats() noexcept {
  return detail::doacross_tl_pool().stats;
}

/// Wu & Lewis' other scheme ("naive loop distribution", Section 3.3/10):
/// a purely sequential pass evaluates the dispatcher into `terms` until
/// `term` says stop or `max_iters` is hit; the caller then runs the
/// remainder as a DOALL over the recorded terms.  Returns the trip count.
/// This is the baseline the figure benches compare the General-k methods to.
template <class T, class Step, class Term>
long sequential_dispatcher_pass(std::vector<T>& terms, T first, Step&& step,
                                Term&& term, long max_iters) {
  terms.clear();
  T cur = first;
  for (long i = 0; i < max_iters; ++i) {
    if (term(cur)) return i;
    terms.push_back(cur);
    cur = step(cur);
  }
  return max_iters;
}

}  // namespace wlp
