// Section 3.1 — the dispatcher is an induction (Figure 2).
//
// With a closed-form dispatcher d(i) = c*i + b every processor can evaluate
// its own dispatcher value, so the WHILE loop runs directly as a DOALL over
// an upper bound `u`.  Each processor records the lowest iteration on which
// it observed the termination condition (the paper's L[vpn]); the minimum
// over processors after the loop is the sequential trip count.
//
//   * Induction-1 — no QUIT primitive: every iteration in [0, u) executes.
//   * Induction-2 — ordered issue + QUIT: the first exit cuts off the issue
//     of larger iterations, so far fewer iterations overshoot.
#pragma once

#include "wlp/core/report.hpp"
#include "wlp/sched/doall.hpp"

namespace wlp {

/// Induction-1 (Fig. 2 left).  `body(i, vpn) -> IterAction` evaluates the
/// termination condition and, when it does not hold, the remainder work for
/// iteration i.  All of [0, u) executes; exit candidates are min-reduced.
template <class Body>
ExecReport while_induction1(ThreadPool& pool, long u, Body&& body) {
  const QuitResult qr =
      doall_quit(pool, 0, u, std::forward<Body>(body), /*use_quit=*/false);
  ExecReport r;
  r.method = Method::kInduction1;
  r.trip = qr.trip;
  r.started = qr.started;
  r.overshot = qr.started - qr.trip;
  return r;
}

/// Induction-2 (Fig. 2 right): ordered issue + QUIT.  Iterations beyond the
/// smallest QUIT issued so far are never begun; the overshoot is bounded by
/// the iterations already in flight when the QUIT lands.
template <class Body>
ExecReport while_induction2(ThreadPool& pool, long u, Body&& body) {
  const QuitResult qr = doall_quit(pool, 0, u, std::forward<Body>(body));
  ExecReport r;
  r.method = Method::kInduction2;
  r.trip = qr.trip;
  r.started = qr.started;
  r.overshot = qr.started - qr.trip;
  return r;
}

/// Reference sequential execution of the same body protocol.  Used by tests
/// and by the speculative driver's fallback path.
template <class Body>
ExecReport while_sequential(long u, Body&& body) {
  ExecReport r;
  r.method = Method::kSequential;
  for (long i = 0; i < u; ++i) {
    ++r.started;
    const IterAction act = body(i, 0u);
    if (act == IterAction::kExit) {
      r.trip = i;
      return r;
    }
    if (act == IterAction::kExitAfter) {
      r.trip = i + 1;
      return r;
    }
  }
  r.trip = u;
  return r;
}

}  // namespace wlp
