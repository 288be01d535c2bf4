// Parallel reduction over an index range.
//
// Used by the post-loop phases the paper requires to be fully parallel:
// the min-reduction that recovers the last valid iteration (Fig. 2) and the
// PD test's post-execution analysis (Section 5.1), both O(n/p + log p).
#pragma once

#include <algorithm>

#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

/// acc = op(acc, f(i)) over i in [lo, hi), blocked statically; block results
/// folded sequentially (O(p)).  `op` must be associative; `id` its identity.
template <class T, class F, class Op>
T parallel_reduce(ThreadPool& pool, long lo, long hi, T id, F&& f, Op&& op) {
  if (lo >= hi) return id;
  const unsigned p = pool.size();
  const long n = hi - lo;
  const long blk = (n + p - 1) / p;
  PerWorker<T> partial(p, id);
  pool.parallel([&](unsigned vpn) {
    const long b = lo + static_cast<long>(vpn) * blk;
    const long e = std::min(b + blk, hi);
    T acc = id;
    for (long i = b; i < e; ++i) acc = op(acc, f(i));
    partial[vpn] = acc;
  });
  return partial.reduce(id, op);
}

/// Parallel minimum of f(i) over [lo, hi).
template <class T, class F>
T parallel_min(ThreadPool& pool, long lo, long hi, T id, F&& f) {
  return parallel_reduce(pool, lo, hi, id, std::forward<F>(f),
                         [](T a, T b) { return std::min(a, b); });
}

/// Parallel sum of f(i) over [lo, hi).
template <class T, class F>
T parallel_sum(ThreadPool& pool, long lo, long hi, F&& f) {
  return parallel_reduce(pool, lo, hi, T{}, std::forward<F>(f),
                         [](T a, T b) { return a + b; });
}

}  // namespace wlp
