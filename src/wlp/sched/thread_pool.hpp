// A persistent fork-join worker pool.
//
// This is the machine abstraction everything else runs on: `p` virtual
// processors (the paper's `nproc`), each with a stable virtual processor
// number `vpn` in [0, p).  A single blocking primitive is exposed —
// `parallel(f)` runs f(vpn) on every virtual processor and waits — and the
// DOALL / DOACROSS / prefix schedulers in this directory are built on top
// of it.
//
// Fork-join protocol (the hot path every strip, window slide and prefix
// pass pays):
//
//   * The calling thread IS a full participant.  A pool of size p owns
//     p - 1 helper threads; `parallel` publishes the job, rings the
//     doorbell, and then *claims virtual processor shares itself*: vpn 0
//     first, then — while waiting for the join — any share no helper has
//     picked up yet.  A share is one f(vpn) call; shares are handed out
//     from an epoch-tagged claim word (48-bit epoch | 16-bit next vpn), so
//     which thread runs which vpn is decided at run time.  Short launches
//     therefore complete almost entirely on the caller (near-inline cost,
//     no context switch on the critical path), while long launches spread
//     across all p threads as the helpers arrive.  A pool of size 1
//     executes entirely inline with zero synchronization.
//   * Helpers wait on a sense-reversing epoch barrier: a cache-line-padded
//     64-bit epoch plus a 32-bit futex doorbell bumped per launch.  They
//     spin with escalating backoff (support/backoff.hpp) and park on the
//     doorbell once the spin budget is exhausted, so an idle pool burns no
//     CPU.  On hosts whose hardware concurrency is smaller than the pool,
//     helpers park immediately — spinning there only steals cycles from
//     the thread being waited on.  Every launch with parked helpers rings
//     the doorbell wake, which is what makes share-stealing safe for
//     bodies that block waiting on another vpn's progress (DOACROSS,
//     sliding window): every unclaimed share is eventually claimed by a
//     live thread.
//   * Join: each executed share decrements the arrival counter (acq_rel,
//     forming a release sequence that publishes every thread's writes);
//     whoever reaches zero stores the epoch into the done word and wakes
//     the caller if — and only if — it is parked (the waker elides the
//     futex syscall via a waiter flag; the kernel-side value check in
//     FUTEX_WAIT makes that race-free).
//   * The job slot is a non-owning, non-allocating `JobRef` (function_ref
//     style): `parallel` accepts any callable by reference, so no
//     std::function is constructed and no capture is ever heap-allocated.
//
// Exceptions thrown by workers are captured and rethrown in the caller
// (first one wins); Section 5.1 of the paper treats an exception during a
// speculative run as a failed speculation, and the speculative driver in
// core/speculative.hpp relies on this propagation.
//
// Re-entrancy: a body that calls `parallel` on the SAME pool (directly or
// transitively) does not deadlock — the nested launch is detected via a
// thread-local current-pool marker and executed inline, serially, on the
// calling thread: f(0), f(1), ..., f(p-1) in order, with a thrown exception
// aborting the remaining virtual processors and propagating.  Nested
// launches on a *different* pool still dispatch to that pool's workers.
// Concurrent `parallel` calls from two unrelated external threads remain
// unsupported (as in every prior revision): one fork-join at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "wlp/support/cacheline.hpp"
#include "wlp/support/stats.hpp"

namespace wlp {

namespace detail {

/// Non-owning reference to a callable `void(unsigned)` — the pool's job
/// slot.  The referenced callable must outlive the launch, which `parallel`
/// guarantees by construction (it blocks until the join).
class JobRef {
 public:
  JobRef() = default;

  template <class F>
  explicit JobRef(F& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        invoke_(+[](void* o, unsigned vpn) { (*static_cast<F*>(o))(vpn); }) {}

  void operator()(unsigned vpn) const { invoke_(obj_, vpn); }

 private:
  void* obj_ = nullptr;
  void (*invoke_)(void*, unsigned) = nullptr;
};

/// Futex-backed sleep/wake on a 32-bit atomic word — the pool barrier's
/// parking primitive, exposed here so other rendezvous points (the DOACROSS
/// frontier word) park on the same machinery instead of growing their own.
///
/// `futex_wait_u32` sleeps while `word == expected` (the kernel re-checks
/// the value under its own lock, so a publication racing the sleep can never
/// strand the waiter); spurious returns are expected and callers must
/// re-check their predicate.  `futex_wake_u32` wakes up to `n` sleepers.
/// Wakers may elide the syscall entirely when a seq_cst waiter-count word
/// says nobody is parked — see the protocol note in thread_pool.cpp.
/// On non-Linux hosts these fall back to std::atomic wait/notify (no
/// elision is attempted there by any caller in this codebase).
void futex_wait_u32(std::atomic<std::uint32_t>& word,
                    std::uint32_t expected) noexcept;
void futex_wake_u32(std::atomic<std::uint32_t>& word, int n) noexcept;

}  // namespace detail

class ThreadPool {
 public:
  /// Create a pool with `n` virtual processors (the calling thread plus
  /// `n - 1` helpers).  `n == 0` selects a default suited to exercising the
  /// runtime even on small hosts (at least 4).
  explicit ThreadPool(unsigned n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of virtual processors.
  unsigned size() const noexcept { return nproc_; }

  /// True when the pool holds more virtual processors than the host has
  /// hardware threads.  Spinning waiters then steal cycles from exactly the
  /// thread they wait on, so every rendezvous built on this pool (the
  /// helpers' start barrier, the DOACROSS frontier) should park immediately
  /// instead of burning a spin budget.
  bool oversubscribed() const noexcept { return oversubscribed_; }

  /// Run `f(vpn)` for every vpn in [0, size()); blocks until all have
  /// finished.  The calling thread executes vpn 0's share itself and then
  /// steals any share no helper has claimed yet, so which thread runs a
  /// given vpn is decided at run time (exactly-once per vpn is guaranteed).
  /// Rethrows the first exception after every share is quiescent.
  /// Safe to call from inside a running body (see re-entrancy note above).
  template <class F>
  void parallel(F&& f) {
    detail::JobRef job(f);  // f is an lvalue here; alive until run() returns
    run(job);
  }

  /// Default worker count: the hardware concurrency, but at least 4 so the
  /// concurrency machinery is genuinely exercised on single-core hosts.
  static unsigned default_concurrency();

  /// Aggregate instrumentation snapshot.  Exact only while no launch is in
  /// flight (counters are relaxed atomics, so a mid-launch snapshot is
  /// merely slightly stale, never a data race).
  PoolStats stats() const;
  void reset_stats();

 private:
  static constexpr unsigned kNoShare = ~0u;

  void run(detail::JobRef job);
  void run_inline(detail::JobRef job);
  void worker_main(unsigned widx);
  unsigned try_claim(std::uint64_t epoch) noexcept;
  void execute_share(unsigned vpn, std::uint64_t epoch);

  struct alignas(kCacheLine) WaitCounters {
    std::atomic<std::uint64_t> spin{0};
    std::atomic<std::uint64_t> park{0};
  };

  unsigned nproc_ = 0;
  bool oversubscribed_ = false;    ///< more vpns than hardware threads
  unsigned start_spin_limit_ = 0;  ///< helper spin budget (0 = park at once)
  unsigned join_spin_limit_ = 0;   ///< caller join spin/yield budget

  // Each signal on its own cache line: helpers hammer the epoch/doorbell
  // while the caller writes `job_`/`claim_`/`remaining_`, and the finish
  // word must not share a line with either.  The futex words are 32-bit
  // (what FUTEX_WAIT takes); the logical epoch is 64-bit so a wrapped
  // 32-bit doorbell can never be mistaken for "no new launch" — a helper
  // woken by the per-launch doorbell ring always re-checks the full epoch.
  // The claim word tags its vpn cursor with the low 48 bits of the epoch,
  // so a claim attempt by a maximally stale helper fails by tag mismatch
  // instead of corrupting a later launch.
  struct alignas(kCacheLine) Signal {
    std::atomic<std::uint32_t> word{0};
  };
  alignas(kCacheLine) std::atomic<std::uint64_t> epoch_{0};  ///< launch number
  Signal doorbell_;  ///< low 32 epoch bits; the helpers' futex word
  Signal done_;      ///< low 32 bits of the finished epoch; caller's futex word
  alignas(kCacheLine) std::atomic<std::uint64_t> claim_{0};  ///< epoch<<16 | next vpn
  alignas(kCacheLine) std::atomic<unsigned> remaining_{0};   ///< unexecuted shares
  alignas(kCacheLine) std::atomic<unsigned> start_parked_{0};  ///< helpers in futex_wait
  std::atomic<unsigned> join_parked_{0};  ///< caller in futex_wait (0/1)
  std::atomic<bool> shutdown_{false};

  detail::JobRef job_;  ///< published by the release store to epoch_
  std::exception_ptr worker_error_;
  std::atomic<bool> error_claimed_{false};

  std::vector<std::thread> threads_;        ///< the nproc_-1 helpers
  std::vector<WaitCounters> wait_counters_;  ///< slot per thread (0 = caller)
  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> inline_launches_{0};
  std::atomic<std::uint64_t> stolen_shares_{0};
  int obs_provider_ = 0;  ///< wlp::obs registry provider id: the pool
                          ///< publishes its PoolStats as live `wlp.pool.*`
                          ///< samples while alive and folds the final
                          ///< values into registry counters on destruction
};

}  // namespace wlp
