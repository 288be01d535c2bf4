// wlp::mem — the process-wide memory accountant.
//
// Every subsystem that speculates pins memory: checkpoint backups, log
// segments, hash-backup slots.  The Budget is the one ledger they all
// charge: every Arena (the process arena, and any a test builds) debits
// and credits it as slabs move between the OS and the free lists, and its
// counters are the surface the arena tests, the allocation-regression
// tests and the CI guard read, as deltas.  It is an accountant, not a
// throttle: the sliding window budgets what its own round pins
// (SpecRound::memory_bytes()), not this process-wide total.
//
// Counter vocabulary (also published as wlp.mem.* obs metrics):
//   * bytes_live    — bytes currently held from the OS by all arenas
//                     (slabs + oversize blocks), gauge.
//   * bytes_peak    — high-water mark of bytes_live, gauge.
//   * arena_allocs  — blocks handed out by arenas (fresh carves AND
//                     free-list recycles), counter.  A steady-state retry
//                     loop performs none: every buffer it needs is already
//                     owned by a live object.  This is the counter the
//                     zero-allocation regression tests watch (replacing
//                     operator-new interposition).
//   * slow_allocs   — arena allocations that had to go to the OS (a new
//                     slab or an oversize block), counter.  Zero in steady
//                     state even across construct/destroy churn, because
//                     retired blocks are recycled from the free lists.
//
// Update paths are single relaxed RMWs (wait-free); snapshots are only
// exact while no allocation is in flight — the same contract every stats
// surface in this runtime offers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace wlp::mem {

struct BudgetSnapshot {
  long bytes_live = 0;    ///< OS bytes currently held by arenas
  long bytes_peak = 0;    ///< high-water mark of bytes_live
  long arena_allocs = 0;  ///< blocks handed out (carve + recycle)
  long slow_allocs = 0;   ///< allocations that reached the OS
  long frees = 0;         ///< blocks returned to arena free lists
};

class Budget {
 public:
  /// The process ledger (leaked singleton: arenas and the obs provider may
  /// outlive any static destruction order).
  static Budget& process();

  // ---- arena-side charge points -------------------------------------------

  void on_os_alloc(std::size_t bytes) noexcept {
    const long live =
        bytes_live_.fetch_add(static_cast<long>(bytes),
                              std::memory_order_relaxed) +
        static_cast<long>(bytes);
    slow_allocs_.fetch_add(1, std::memory_order_relaxed);
    // fetch-max on the peak; racing updaters settle on the true maximum.
    long peak = bytes_peak_.load(std::memory_order_relaxed);
    while (live > peak &&
           !bytes_peak_.compare_exchange_weak(peak, live,
                                              std::memory_order_relaxed)) {
    }
  }

  void on_os_release(std::size_t bytes) noexcept {
    bytes_live_.fetch_sub(static_cast<long>(bytes), std::memory_order_relaxed);
  }

  void on_block_alloc() noexcept {
    arena_allocs_.fetch_add(1, std::memory_order_relaxed);
  }

  void on_block_free() noexcept {
    frees_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- read side -----------------------------------------------------------

  long bytes_live() const noexcept {
    return bytes_live_.load(std::memory_order_relaxed);
  }
  long bytes_peak() const noexcept {
    return bytes_peak_.load(std::memory_order_relaxed);
  }
  long arena_allocs() const noexcept {
    return arena_allocs_.load(std::memory_order_relaxed);
  }
  long slow_allocs() const noexcept {
    return slow_allocs_.load(std::memory_order_relaxed);
  }

  BudgetSnapshot snapshot() const noexcept {
    BudgetSnapshot s;
    s.bytes_live = bytes_live();
    s.bytes_peak = bytes_peak();
    s.arena_allocs = arena_allocs();
    s.slow_allocs = slow_allocs();
    s.frees = frees_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  Budget();

  alignas(64) std::atomic<long> bytes_live_{0};
  alignas(64) std::atomic<long> bytes_peak_{0};
  alignas(64) std::atomic<long> arena_allocs_{0};
  alignas(64) std::atomic<long> slow_allocs_{0};
  alignas(64) std::atomic<long> frees_{0};
};

}  // namespace wlp::mem
