// WHILE-DOANY — the construct Section 9 introduces for the MCSPARSE pivot
// search: the loop's iterations are independent AND order-insensitive, so
// even though the terminator is RV and the parallel execution overshoots,
// no backups and no time-stamps are needed — any admissible result is a
// correct result.
//
// The companion aliases give the paper's proposed parallel-programming
// constructs their names: WHILE-DOALL (speculative DOALL via Induction-2
// semantics) and WHILE-DOACROSS (pipelined; see wu_lewis.hpp / doacross.hpp).
#pragma once

#include <atomic>
#include <cstdint>

#include "wlp/core/report.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {

/// Order-insensitive parallel WHILE: `body(i, vpn) -> IterAction`; an
/// iteration returning kExitAfter means "an acceptable result was produced,
/// wind the loop down".  Nothing is undone; `trip` reports where the loop
/// stopped issuing, not a sequential-consistency point.
template <class Body>
ExecReport while_doany(ThreadPool& pool, long u, Body&& body) {
  const QuitResult qr = doall_quit(pool, 0, u, std::forward<Body>(body));
  ExecReport r;
  r.method = Method::kDoany;
  r.trip = qr.trip;
  r.started = qr.started;
  r.overshot = std::max(0L, qr.started - qr.trip);
  return r;
}

/// A concurrent "best candidate" cell for DOANY reductions: keeps the
/// (cost, payload) pair with minimal cost among all publishes.  Cost and
/// payload are packed into one 64-bit word so the update is a single CAS —
/// cost in the high 32 bits (lower is better), payload in the low 32.
class BestCandidate {
 public:
  static constexpr std::uint64_t kEmpty = ~0ULL;

  void publish(std::uint32_t cost, std::uint32_t payload) noexcept {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(cost) << 32) | payload;
    std::uint64_t cur = word_.load(std::memory_order_relaxed);
    while (packed < cur &&
           !word_.compare_exchange_weak(cur, packed, std::memory_order_acq_rel)) {
    }
  }

  bool empty() const noexcept {
    return word_.load(std::memory_order_acquire) == kEmpty;
  }
  std::uint32_t cost() const noexcept {
    return static_cast<std::uint32_t>(word_.load(std::memory_order_acquire) >> 32);
  }
  std::uint32_t payload() const noexcept {
    return static_cast<std::uint32_t>(word_.load(std::memory_order_acquire));
  }

  void reset() noexcept { word_.store(kEmpty, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> word_{kEmpty};
};

}  // namespace wlp
