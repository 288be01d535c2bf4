// Section 3.2 — the dispatcher is an associative recurrence (Figure 3).
//
// The original loop is distributed into (1) a loop computing the dispatcher
// terms, transformed into a parallel prefix computation, and (2) a DOALL
// over the remainder using those terms.  With an RI terminator the exit is
// found by scanning the precomputed terms; with an RV terminator the exit
// can only surface inside the remainder, so the execution is strip-mined:
// each strip's terms are computed by prefix and its remainder run as a
// speculative DOALL — the terms computed beyond the actual exit are the
// "superfluous dispatcher values" cost the paper warns about, which the
// report exposes through dispatcher_steps.
#pragma once

#include <limits>
#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/sched/parallel_prefix.hpp"
#include "wlp/sched/reduce.hpp"

namespace wlp {

/// Parallelize `while (!term(x)) { body(i, x); x = step(x); }` where
/// x(0) = x0 and step is the affine map x -> a*x + b over ring T.
///
/// `term(x) -> bool` is the RI terminator on the dispatcher value;
/// `body(i, x, vpn) -> IterAction` is the remainder (it may raise RV exits).
/// `u` bounds the iteration space; `strip` is the strip length (0 = one
/// strip covering all of u, the right choice for RI terminators).
template <class T, class TermRI, class Body>
ExecReport while_assoc_prefix(ThreadPool& pool, T x0, AffineMap<T> step,
                              TermRI&& term, Body&& body, long u,
                              long strip = 0) {
  ExecReport r;
  r.method = Method::kAssocPrefix;
  if (strip <= 0) strip = u;

  T strip_seed = x0;  // dispatcher value at the first iteration of the strip
  for (long base = 0; base < u; base += strip) {
    const long len = std::min(strip, u - base);

    // Loop 1 (distributed): terms for iterations [base, base+len).
    // vals[0] = strip_seed; vals[j] = step^j(strip_seed), computed by scan.
    std::vector<T> vals(static_cast<std::size_t>(len));
    vals[0] = strip_seed;
    if (len > 1) {
      auto tail = affine_recurrence_terms(pool, strip_seed, step.a, step.b,
                                          len - 1);
      for (long j = 1; j < len; ++j)
        vals[static_cast<std::size_t>(j)] = tail[static_cast<std::size_t>(j - 1)];
    }
    r.dispatcher_steps += len;

    // RI exit: first term in the strip on which the terminator holds.
    const long kNone = std::numeric_limits<long>::max();
    const long ri_exit = parallel_min(
        pool, 0, len, kNone,
        [&](long j) { return term(vals[static_cast<std::size_t>(j)]) ? base + j : kNone; });
    const long strip_end = ri_exit == kNone ? base + len : ri_exit;

    // Loop 2 (distributed): the remainder as a speculative DOALL.
    const QuitResult qr = doall_quit(
        pool, base, strip_end,
        [&](long i, unsigned vpn) {
          return body(i, vals[static_cast<std::size_t>(i - base)], vpn);
        });
    r.started += qr.started;

    if (qr.trip < strip_end) {  // RV exit inside this strip
      r.trip = qr.trip;
      // Earlier strips ran to completion; only this strip overshoots.
      r.overshot = std::max(0L, qr.started - (qr.trip - base));
      return r;
    }
    if (ri_exit != kNone) {  // RI exit: clean stop, nothing overshot
      r.trip = ri_exit;
      return r;
    }

    // Seed the next strip: x(base+len) = step(vals[len-1]).
    strip_seed = step(vals[static_cast<std::size_t>(len - 1)]);
  }

  r.trip = u;
  return r;
}

}  // namespace wlp
