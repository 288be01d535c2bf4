// Shared spin-wait backoff policy for the fork-join barrier and the
// DOACROSS sequential-phase handoff.
//
// Every busy-wait in the runtime escalates the same way: a few rounds of
// exponentially growing `pause` bursts (cheap, keeps the line in S state and
// frees pipeline slots for the sibling hyperthread), then `yield` (give the
// OS a chance to run the thread we are waiting on), and — for waiters that
// have a futex-capable word to sleep on — a park threshold after which the
// waiter should stop burning CPU entirely.  Centralizing the policy here
// keeps the barrier, the DOACROSS flag wait, and any future spin loop
// consistent and individually tunable.
#pragma once

#include <thread>

namespace wlp {

/// One CPU relaxation hint (x86 `pause` / ARM `yield`); no-op elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Escalating backoff: pause bursts of 1, 2, 4, ... up to 2^kPauseRounds,
/// then sched_yield per round.  `should_park()` turns true after
/// `spin_limit` rounds; waiters with a park mechanism (atomic wait / futex)
/// check it each round, call `note_park()` after each sleep, and waiters
/// without one just keep yielding.
class Backoff {
 public:
  /// `spin_limit == 0` means "park immediately" — the right policy when the
  /// host cannot actually spin usefully (fewer cores than waiters).  Limits
  /// above kRoundCap are clamped so should_park() stays reachable.
  explicit Backoff(unsigned spin_limit = kDefaultSpinLimit) noexcept
      : spin_limit_(spin_limit < kRoundCap ? spin_limit : kRoundCap) {}

  void pause() noexcept {
    if (round_ < kPauseRounds) {
      const unsigned reps = 1u << round_;
      for (unsigned i = 0; i < reps; ++i) cpu_relax();
    } else {
      std::this_thread::yield();
    }
    if (round_ < kRoundCap) ++round_;
  }

  bool should_park() const noexcept { return round_ >= spin_limit_; }

  /// Park hook: record one futex/atomic-wait sleep on the watched word.
  /// Waiters that park report `parks()` alongside `rounds()` so the
  /// park-vs-spin split is visible to the obs counters.
  void note_park() noexcept {
    if (parks_ < kRoundCap) ++parks_;
  }

  void reset() noexcept {
    round_ = 0;
    parks_ = 0;
  }
  /// Rounds burned, saturating at kRoundCap: the wlp.doacross.wait_rounds
  /// histogram input must never wrap, and past the cap the escalation state
  /// is meaningless anyway (the waiter yields every round regardless).
  unsigned rounds() const noexcept { return round_; }
  unsigned parks() const noexcept { return parks_; }

  static constexpr unsigned kPauseRounds = 6;        ///< 1..32 pauses/round
  static constexpr unsigned kDefaultSpinLimit = 48;  ///< then park (if able)
  static constexpr unsigned kRoundCap = 1u << 16;    ///< counter saturation

 private:
  unsigned round_ = 0;
  unsigned parks_ = 0;
  unsigned spin_limit_;
};

}  // namespace wlp
