#include "wlp/sched/thread_pool.hpp"

#include <algorithm>
#include <limits>

#include "wlp/obs/obs.hpp"
#include "wlp/support/backoff.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace wlp {

namespace {

// The pool a thread is currently executing a parallel body for.  Used to
// detect nested `parallel` calls on the same pool (which would otherwise
// deadlock waiting for workers that are all busy in the outer launch) and
// serialize them inline instead.
thread_local const ThreadPool* tl_current_pool = nullptr;

struct CurrentPoolGuard {
  const ThreadPool* prev;
  explicit CurrentPoolGuard(const ThreadPool* p) noexcept : prev(tl_current_pool) {
    tl_current_pool = p;
  }
  ~CurrentPoolGuard() { tl_current_pool = prev; }
};

// Claim word layout: low 48 epoch bits in the top, next unclaimed vpn in
// the bottom 16 (pool sizes are far below 2^16, so a claim is just +1).
constexpr std::uint64_t claim_pack(std::uint64_t epoch, unsigned next_vpn) {
  return (epoch << 16) | next_vpn;
}

}  // namespace

namespace detail {

// Parking primitive.  On Linux we call futex directly instead of
// std::atomic::wait/notify: the kernel-side value compare in FUTEX_WAIT
// makes it safe for the *waker* to skip the wake syscall whenever the
// waiter-count word says nobody is parked — the seq_cst protocol used by
// the pool barrier and the DOACROSS frontier guarantees that a waiter that
// slipped into the kernel is always seen.  (std::atomic::notify cannot be
// elided that way: libstdc++ parks on an internal proxy word, so a skipped
// notify can strand a waiter even though the value already changed.)
// Memory ordering between publisher and waiter is carried entirely by the
// atomic words themselves; the futex is only a sleeping primitive, which
// also keeps the protocols TSan-clean.
#if defined(__linux__)
void futex_wait_u32(std::atomic<std::uint32_t>& word,
                    std::uint32_t expected) noexcept {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
}
void futex_wake_u32(std::atomic<std::uint32_t>& word, int n) noexcept {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, n, nullptr, nullptr, 0);
}
#else
void futex_wait_u32(std::atomic<std::uint32_t>& word,
                    std::uint32_t expected) noexcept {
  word.wait(expected, std::memory_order_acquire);
}
void futex_wake_u32(std::atomic<std::uint32_t>& word, int n) noexcept {
  if (n == 1)
    word.notify_one();
  else
    word.notify_all();
}
#endif

}  // namespace detail

unsigned ThreadPool::default_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(hw, 4u);
}

ThreadPool::ThreadPool(unsigned n) {
  if (n == 0) n = default_concurrency();
  n = std::min(n, 0xffffu);  // vpn must fit the claim word's low 16 bits
  nproc_ = n;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  oversubscribed_ = n > hw;
  // Helpers: spinning for the next fork only pays if the caller can run
  // concurrently; on an oversubscribed host the spin budget is cycles
  // stolen from exactly the thread being waited for, so park at once.
  start_spin_limit_ = oversubscribed_ ? 0 : Backoff::kDefaultSpinLimit;
  // Caller: the join wait is short by construction (the caller has already
  // executed or stolen every share nobody claimed), so burn a spin/yield
  // budget before parking — each yield donates the core to a helper, and
  // skipping the park elides the last helper's wake syscall entirely.
  join_spin_limit_ = 128;
  wait_counters_ = std::vector<WaitCounters>(n);
  threads_.reserve(n - 1);
  for (unsigned widx = 1; widx < n; ++widx)
    threads_.emplace_back([this, widx] { worker_main(widx); });

  // Live view: each snapshot pulls this pool's counters.  The provider must
  // not call back into the registry (it runs under the registry lock), so
  // it only reads our atomics.
  obs_provider_ = obs::Registry::instance().add_provider([this](obs::Snapshot& out) {
    const PoolStats s = stats();
    auto push = [&out](const char* name, std::uint64_t v) {
      obs::MetricSample m;
      m.name = name;
      m.kind = obs::MetricSample::Kind::kCounter;
      m.value = static_cast<std::int64_t>(v);
      out.push_back(std::move(m));
    };
    push("wlp.pool.launches", s.launches);
    push("wlp.pool.inline_launches", s.inline_launches);
    push("wlp.pool.spin_wakeups", s.spin_wakeups);
    push("wlp.pool.park_wakeups", s.park_wakeups);
    push("wlp.pool.stolen_shares", s.stolen_shares);
  });
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(e, std::memory_order_seq_cst);
  doorbell_.word.store(static_cast<std::uint32_t>(e), std::memory_order_seq_cst);
  detail::futex_wake_u32(doorbell_.word, std::numeric_limits<int>::max());
  for (auto& t : threads_) t.join();

  obs::Registry::instance().remove_provider(obs_provider_);
  // Fold the dying pool's totals into owned counters of the same names,
  // so lifetime totals survive (snapshots merge same-name counters).
  const PoolStats s = stats();
  WLP_OBS_COUNT("wlp.pool.launches", s.launches);
  WLP_OBS_COUNT("wlp.pool.inline_launches", s.inline_launches);
  WLP_OBS_COUNT("wlp.pool.spin_wakeups", s.spin_wakeups);
  WLP_OBS_COUNT("wlp.pool.park_wakeups", s.park_wakeups);
  WLP_OBS_COUNT("wlp.pool.stolen_shares", s.stolen_shares);
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.launches = launches_.load(std::memory_order_relaxed);
  s.inline_launches = inline_launches_.load(std::memory_order_relaxed);
  s.stolen_shares = stolen_shares_.load(std::memory_order_relaxed);
  for (const auto& c : wait_counters_) {
    s.spin_wakeups += c.spin.load(std::memory_order_relaxed);
    s.park_wakeups += c.park.load(std::memory_order_relaxed);
  }
  return s;
}

void ThreadPool::reset_stats() {
  launches_.store(0, std::memory_order_relaxed);
  inline_launches_.store(0, std::memory_order_relaxed);
  stolen_shares_.store(0, std::memory_order_relaxed);
  for (auto& c : wait_counters_) {
    c.spin.store(0, std::memory_order_relaxed);
    c.park.store(0, std::memory_order_relaxed);
  }
}

// Nested-or-serial path: run every virtual processor's share on this thread,
// in vpn order.  An exception aborts the remaining shares and propagates —
// the documented nested-launch guarantee.
void ThreadPool::run_inline(detail::JobRef job) {
  inline_launches_.fetch_add(1, std::memory_order_relaxed);
  WLP_TRACE_SCOPE("forkjoin.inline", nproc_, 0);
  CurrentPoolGuard guard(this);
  for (unsigned vpn = 0; vpn < nproc_; ++vpn) job(vpn);
}

// Hand out the next unexecuted share of `epoch`, or kNoShare if the claim
// word has moved on (all shares claimed, or a newer launch started — the
// epoch tag makes a stale claimant fail by value, never corrupt a later
// launch).  Relaxed is enough: job_/remaining_ visibility rides on the
// epoch acquire the claimant already performed.
unsigned ThreadPool::try_claim(std::uint64_t epoch) noexcept {
  const std::uint64_t tag = epoch << 16;  // keeps the low 48 epoch bits
  std::uint64_t c = claim_.load(std::memory_order_relaxed);
  for (;;) {
    if ((c & ~std::uint64_t{0xffff}) != tag) return kNoShare;
    const unsigned vpn = static_cast<unsigned>(c & 0xffff);
    if (vpn >= nproc_) return kNoShare;
    if (claim_.compare_exchange_weak(c, c + 1, std::memory_order_relaxed))
      return vpn;
  }
}

// Run one claimed share and retire it.  Whoever retires the last share of
// the launch posts the done word; the acq_rel decrement chain is a release
// sequence, so the caller's acquire of the done word sees every share's
// writes (including a claimed worker_error_).
void ThreadPool::execute_share(unsigned vpn, std::uint64_t epoch) {
  std::exception_ptr err;
  {
    WLP_TRACE_SCOPE("share", epoch, vpn);
    CurrentPoolGuard guard(this);
    try {
      job_(vpn);
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (err) {
    bool expected = false;
    if (error_claimed_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel))
      worker_error_ = err;
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_.word.store(static_cast<std::uint32_t>(epoch), std::memory_order_seq_cst);
    if (join_parked_.load(std::memory_order_seq_cst) != 0) detail::futex_wake_u32(done_.word, 1);
  }
}

void ThreadPool::run(detail::JobRef job) {
  if (tl_current_pool == this || nproc_ == 1) {
    run_inline(job);
    return;
  }
  launches_.fetch_add(1, std::memory_order_relaxed);
  WLP_TRACE_SCOPE("forkjoin", epoch_.load(std::memory_order_relaxed) + 1,
                  nproc_);

  job_ = job;
  error_claimed_.store(false, std::memory_order_relaxed);
  worker_error_ = nullptr;
  remaining_.store(nproc_, std::memory_order_relaxed);
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  claim_.store(claim_pack(e, 1), std::memory_order_relaxed);  // vpn 0 is ours
  // The fork: the epoch store publishes job_/claim_/remaining_ to the
  // helpers, whose first action is an acquire load of it.  seq_cst so the
  // doorbell ring orders against the start_parked_ read below (a helper
  // that got past the kernel's value check must be seen parked).
  epoch_.store(e, std::memory_order_seq_cst);
  doorbell_.word.store(static_cast<std::uint32_t>(e), std::memory_order_seq_cst);
  if (start_parked_.load(std::memory_order_seq_cst) != 0)
    detail::futex_wake_u32(doorbell_.word, std::numeric_limits<int>::max());

  // Run our own share, then steal any share the helpers have not reached.
  // On a host where the helpers are still context-switching in, a short
  // launch completes right here on the caller with no switch on the
  // critical path; the helpers drain the stale claim word and re-park.
  execute_share(0, e);
  for (;;) {
    const unsigned vpn = try_claim(e);
    if (vpn == kNoShare) break;
    stolen_shares_.fetch_add(1, std::memory_order_relaxed);
    execute_share(vpn, e);
  }

  // The join: spin/yield, then park on the done word until the thread that
  // retires the last share posts the epoch.
  const std::uint32_t target = static_cast<std::uint32_t>(e);
  Backoff backoff(join_spin_limit_);
  bool parked = false;
  while (done_.word.load(std::memory_order_acquire) != target) {
    if (backoff.should_park()) {
      WLP_TRACE_INSTANT("park.join", e, 0);
      join_parked_.store(1, std::memory_order_seq_cst);
      if (done_.word.load(std::memory_order_seq_cst) != target)
        detail::futex_wait_u32(done_.word, static_cast<std::uint32_t>(e - 1));
      join_parked_.store(0, std::memory_order_relaxed);
      parked = true;
    } else {
      backoff.pause();
    }
  }
  auto& ctr = wait_counters_[0];
  (parked ? ctr.park : ctr.spin).fetch_add(1, std::memory_order_relaxed);

  if (worker_error_) std::rethrow_exception(worker_error_);
}

void ThreadPool::worker_main(unsigned widx) {
  std::uint64_t seen = 0;
  auto& ctr = wait_counters_[widx];
  for (;;) {
    Backoff backoff(start_spin_limit_);
    bool parked = false;
    std::uint64_t e;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      if (backoff.should_park()) {
        WLP_TRACE_INSTANT("park.worker", widx, 0);
        const std::uint32_t bell = doorbell_.word.load(std::memory_order_seq_cst);
        start_parked_.fetch_add(1, std::memory_order_seq_cst);
        if (epoch_.load(std::memory_order_seq_cst) == seen)
          detail::futex_wait_u32(doorbell_.word, bell);
        start_parked_.fetch_sub(1, std::memory_order_seq_cst);
        parked = true;
      } else {
        backoff.pause();
      }
    }
    (parked ? ctr.park : ctr.spin).fetch_add(1, std::memory_order_relaxed);
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = e;

    for (;;) {
      const unsigned vpn = try_claim(e);
      if (vpn == kNoShare) break;
      execute_share(vpn, e);
    }
  }
}

}  // namespace wlp
