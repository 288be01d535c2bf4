// The Wu & Lewis (ICPP 1990) baselines, as characterized in Sections 3.3
// and 10 of the paper.
//
//   * Distribute: a *sequential* pass evaluates the dispatcher and stores its
//     values in an array; the remainder then runs as a DOALL over that array.
//     ("naive loop distribution" — requires storage for every term and makes
//     the dispatcher a serial prologue.)
//   * Doacross: pipeline the loop; the dispatcher step of iteration i waits
//     for iteration i-1's step.  Never overshoots, but the pipeline depth
//     limits speedup to roughly Twork/Tnext when the recurrence is slow.
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/sched/doacross.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/backoff.hpp"

namespace wlp {

/// Wu–Lewis loop distribution.  The sequential prologue walks the cursor
/// until `is_end` or `u`, recording every value; the remainder runs as a
/// DOALL over the recorded terms.  The RV case still works — exits inside
/// the DOALL are min-reduced — but the prologue has already paid for every
/// dispatcher term (the "superfluous values" cost Section 3.2/3.3 warns
/// about), which the report exposes via dispatcher_steps.
template <class Cursor, class Next, class End, class Body>
ExecReport while_wu_lewis_distribute(ThreadPool& pool, Cursor head, Next&& next,
                                     End&& is_end, Body&& body, long u) {
  std::vector<Cursor> terms;
  for (Cursor c = head; static_cast<long>(terms.size()) < u && !is_end(c);
       c = next(c))
    terms.push_back(c);
  const long length = static_cast<long>(terms.size());

  const QuitResult qr = doall_quit(
      pool, 0, length,
      [&](long i, unsigned vpn) { return body(i, terms[static_cast<std::size_t>(i)], vpn); });

  ExecReport r;
  r.method = Method::kWuLewisDistribute;
  r.trip = qr.trip;
  r.started = qr.started;
  r.overshot = std::max(0L, qr.started - qr.trip);
  r.dispatcher_steps = length;  // every term evaluated up front, serially
  return r;
}

/// Wu–Lewis DOACROSS pipelining.  The cursor step is the sequential phase;
/// the remainder is the parallel phase.  The RI terminator is evaluated in
/// program order inside the sequential phase, so the loop never overshoots
/// (and never exploits post-exit parallelism either).
template <class Cursor, class Next, class End, class Par>
ExecReport while_wu_lewis_doacross(ThreadPool& pool, Cursor head, Next&& next,
                                   End&& is_end, Par&& par, long u) {
  // ring[i % slots] is filled by the sequential phase of iteration i and
  // read by its parallel phase.  A pipeline-depth ring is NOT automatically
  // safe: the chain bounds *claimed-but-unretired* iterations to pool.size(),
  // but an intermediate iteration can retire while an older par() still
  // runs, letting seq(i + slots) claim — and overwrite ring[i % slots] —
  // before par(i) has read it (the intermittent TSan race on this line).
  // Per-slot tickets close the window: seq(i) may not refill slot i % slots
  // until par(i - slots) has copied the cursor out and advanced the ticket.
  //
  // No deadlock: a seq(i) ticket wait depends on par(i - slots), which
  // depends only on seq(i - slots) — an iteration at least `slots` claims
  // older that has already run (the chain executes sequential phases in
  // order).  Within an owner's helping batch the same holds: every
  // ticket-blocking par is from a prior batch and already free to run.
  const long depth = static_cast<long>(pool.size());
  std::vector<Cursor> ring(static_cast<std::size_t>(std::min(u, depth)));
  const long slots = static_cast<long>(ring.size());
  std::vector<std::atomic<long>> turn(ring.size());
  for (long k = 0; k < slots; ++k) turn[static_cast<std::size_t>(k)] = k;
  Cursor walker = head;

  const DoacrossResult dr = doacross_while(
      pool, u,
      [&](long i) {
        if (is_end(walker)) return false;
        const auto k = static_cast<std::size_t>(i % slots);
        Backoff bo;
        while (turn[k].load(std::memory_order_acquire) != i) bo.pause();
        ring[k] = walker;
        walker = next(walker);
        return true;
      },
      [&](long i, unsigned vpn) {
        const auto k = static_cast<std::size_t>(i % slots);
        Cursor c = ring[k];
        turn[k].store(i + slots, std::memory_order_release);
        par(i, c, vpn);
      });

  ExecReport r;
  r.method = Method::kWuLewisDoacross;
  r.trip = dr.trip;
  r.started = dr.trip;
  r.overshot = 0;
  r.dispatcher_steps = dr.trip;
  return r;
}

}  // namespace wlp
