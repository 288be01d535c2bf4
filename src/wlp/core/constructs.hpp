// The parallel-programming constructs the paper proposes (Sections 1/11):
// WHILE-DOALL, WHILE-DOACROSS and WHILE-DOANY — "WHILE loop counterparts
// for the existing constructs for parallel execution of DO loops".
//
// These are thin, named entry points over the runtime methods so that a
// manual parallelizer can write the paper's vocabulary directly:
//
//   while_doall(pool, u, body)        — speculative DOALL (ordered issue +
//                                       QUIT; undo is the caller's wrapper,
//                                       see speculative_while)
//   while_doacross(pool, u, seq, par) — pipelined execution, never
//                                       overshoots
//   while_doany(pool, u, body)        — order-insensitive, first acceptable
//                                       result wins, no undo
//                                       (defined in while_doany.hpp)
#pragma once

#include "wlp/core/report.hpp"
#include "wlp/core/while_doany.hpp"
#include "wlp/core/while_induction.hpp"
#include "wlp/sched/doacross.hpp"

namespace wlp {

/// WHILE-DOALL: all iterations independent (or speculatively treated as
/// such); the terminator is evaluated per iteration and min-reduced.
template <class Body>
ExecReport while_doall(ThreadPool& pool, long u, Body&& body) {
  return while_induction2(pool, u, std::forward<Body>(body));
}

/// WHILE-DOACROSS: `seq(i) -> bool` is the ordered phase (false = the
/// terminator held at iteration i); `par(i, vpn)` is the overlapped
/// remainder.  Never overshoots.
template <class Seq, class Par>
ExecReport while_doacross(ThreadPool& pool, long u, Seq&& seq, Par&& par) {
  const DoacrossResult dr =
      doacross_while(pool, u, std::forward<Seq>(seq), std::forward<Par>(par));
  ExecReport r;
  r.method = Method::kWuLewisDoacross;
  r.trip = dr.trip;
  r.started = dr.trip;
  return r;
}

// while_doany is declared in while_doany.hpp and included above.

}  // namespace wlp
