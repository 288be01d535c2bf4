// wlp::mem — the generation-stamp clock.
//
// Every O(1)-reset structure in this runtime that is not a rewound log
// (hash-backup slots, DOACROSS chain slots) uses the same trick: contents
// carry a 32-bit generation stamp, a "clear" is one counter bump that makes
// every old stamp read as empty, and the only real O(n) sweep happens once
// per 2^32 clears when the counter wraps.  Each of them hand-rolled the
// counter before this header existed; EpochClock is the one
// implementation, in its own header so hot-path headers can stamp without
// pulling in the allocator.
#pragma once

#include <cstdint>

namespace wlp::mem {

/// Logical clears are an epoch bump; contents stamped with an older epoch
/// read as empty.  One real sweep per 2^32 bumps, when the 32-bit counter
/// wraps — the caller's `sweep` must erase every stale stamp so nothing
/// aliases the restarted counter.  Epoch 0 is reserved for "never stamped"
/// (the counter starts at 1 and restarts at 1 after a wrap).
///
/// Not thread-safe: bump()/jump() follow the owner's reset discipline
/// (quiescent points only — the same contract the stamped data obeys).
class EpochClock {
 public:
  std::uint32_t value() const noexcept { return epoch_; }

  template <class Sweep>
  void bump(Sweep&& sweep) {
    if (++epoch_ == 0) {
      sweep();
      epoch_ = 1;
      ++sweeps_;
    }
    ++resets_;
  }

  /// Test hook: sweep (counted — the hook really does erase every stamp),
  /// then restart the counter at `e` so a test can force the wrap path
  /// without 4G bumps.
  template <class Sweep>
  void jump(std::uint32_t e, Sweep&& sweep) {
    sweep();
    ++sweeps_;
    epoch_ = e;
  }

  long resets() const noexcept { return resets_; }
  long sweeps() const noexcept { return sweeps_; }

 private:
  std::uint32_t epoch_ = 1;  ///< 0 is reserved for "never stamped"
  long resets_ = 0;
  long sweeps_ = 0;  ///< wrap sweeps actually performed
};

}  // namespace wlp::mem
