// Small online/offline statistics helpers used by the benchmark harnesses,
// plus the instrumentation snapshot types exposed by the runtime substrate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace wlp {

/// Snapshot of a ThreadPool's fork-join instrumentation counters.
///
/// Taken with `ThreadPool::stats()`; counters accumulate until
/// `reset_stats()`.  A *wakeup* is one worker (or the caller, on the join
/// side) leaving a barrier wait: `spin_wakeups` resolved during the bounded
/// spin phase, `park_wakeups` had to park on the futex word.  A high park
/// ratio on a multicore host means launches are too far apart to spin for
/// (fine); a high park ratio *during* a tight strip/window loop means the
/// grain is too small for the substrate.
struct PoolStats {
  std::uint64_t launches = 0;         ///< parallel() calls dispatched to workers
  std::uint64_t inline_launches = 0;  ///< nested or p==1 calls run serially inline
  std::uint64_t spin_wakeups = 0;     ///< barrier waits resolved while spinning
  std::uint64_t park_wakeups = 0;     ///< barrier waits that parked (futex)
  std::uint64_t stolen_shares = 0;    ///< shares the caller ran beyond vpn 0
};

/// Welford online accumulator: mean / variance / min / max in one pass.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Median of a sample (copies; fine for bench-sized vectors).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid), xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  double lo = *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

/// Relative error |measured - reference| / |reference| (0 when both 0).
inline double relative_error(double measured, double reference) noexcept {
  if (reference == 0.0) return measured == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::abs(measured - reference) / std::abs(reference);
}

}  // namespace wlp
