// Section 3.3 — the dispatcher is a general (inherently sequential)
// recurrence, e.g. a pointer traversing a linked list (Figure 4).
//
// The dispatcher itself cannot be parallelized — it is a continuous chain of
// flow dependences — so these methods overlap the *remainder* work of
// different iterations instead:
//
//   * General-1: the processors cooperatively traverse the structure once,
//     serializing next() inside a critical section.
//   * General-2: every processor privately traverses the whole structure and
//     statically executes the iterations congruent to its vpn mod p.
//   * General-3: every processor privately traverses, but iterations are
//     claimed dynamically, in blocks sized from measured time like
//     doall_quit's default (detail::ClaimBlock); a processor replays the
//     recurrence from the last point it held (`prev`) to its newly claimed
//     block and then walks the block.
//
// All three are generic over a *cursor*: any copyable value plus a `next`
// step and an `is_end` predicate (the RI component of the terminator that is
// strongly connected to the dispatcher — `tmp == null` in Fig. 1(b)).
// The body may additionally report RV exits via IterAction.
//
// General-2 and General-3 load the next cursor before the body runs, so a
// hop's cache miss overlaps the body's work instead of following it.  Both
// therefore need `next` to be safe on any cursor for which `is_end` is
// false, and a body that does not change the links the walk follows: the
// contract General-3 already sets, since its workers replay past an RV exit
// while other bodies run.
#pragma once

#include <atomic>
#include <limits>
#include <mutex>

#include "wlp/core/report.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/support/cacheline.hpp"

namespace wlp {

namespace detail {

struct GeneralAccounting {
  PerWorker<long> trip;
  PerWorker<long> started;
  PerWorker<long> hops;
  Padded<QuitBound> quit;  ///< own cache line: every iteration polls it

  explicit GeneralAccounting(unsigned p)
      : trip(p, std::numeric_limits<long>::max()), started(p, 0), hops(p, 0) {}

  void record_end(long length, unsigned vpn) {
    trip[vpn] = std::min(trip[vpn], length);
    quit->quit(length);
  }

  ExecReport finish(Method m, long u) const {
    ExecReport r;
    r.method = m;
    const long min_trip = trip.reduce(std::numeric_limits<long>::max(),
                                      [](long a, long b) { return std::min(a, b); });
    r.trip = std::min(min_trip, u);
    r.started = started.reduce(0L, [](long a, long b) { return a + b; });
    r.overshot = std::max(0L, r.started - r.trip);
    r.dispatcher_steps = hops.reduce(0L, [](long a, long b) { return a + b; });
    return r;
  }
};

}  // namespace detail

/// General-1: serialize accesses to next() (hardware-pipelining analog).
/// The critical section hands each processor the next (index, cursor) pair.
template <class Cursor, class Next, class End, class Body>
ExecReport while_general1(ThreadPool& pool, Cursor head, Next&& next, End&& is_end,
                          Body&& body, long u = std::numeric_limits<long>::max()) {
  const unsigned p = pool.size();
  detail::GeneralAccounting acc(p);
  std::mutex mu;
  Cursor cur = head;
  long idx = 0;
  bool exhausted = false;

  pool.parallel([&](unsigned vpn) {
    for (;;) {
      Cursor mine{};
      long i;
      {
        std::lock_guard lock(mu);
        if (exhausted || idx >= u) return;
        if (is_end(cur)) {
          exhausted = true;
          acc.record_end(idx, vpn);
          return;
        }
        i = idx++;
        mine = cur;
        cur = next(cur);
        ++acc.hops[vpn];
      }
      if (acc.quit->cut(i)) return;  // claims are ordered: nothing lower remains
      ++acc.started[vpn];
      detail::note_exit(body(i, mine, vpn), i, acc.trip[vpn], *acc.quit);
    }
  });
  return acc.finish(Method::kGeneral1, u);
}

/// General-2: private traversal, static cyclic assignment (i mod p == vpn).
/// No locks; each processor walks the entire structure, so the total hop
/// count is ~p times the list length — the price of static scheduling.
template <class Cursor, class Next, class End, class Body>
ExecReport while_general2(ThreadPool& pool, Cursor head, Next&& next, End&& is_end,
                          Body&& body, long u = std::numeric_limits<long>::max()) {
  const unsigned p = pool.size();
  detail::GeneralAccounting acc(p);

  pool.parallel([&](unsigned vpn) {
    Cursor pt = head;
    long i = 0;
    while (i < u) {
      if (is_end(pt)) {
        acc.record_end(i, vpn);
        return;
      }
      if (acc.quit->cut(i)) return;
      const Cursor cur = pt;
      pt = next(cur);  // the look-ahead: node i + 1 loads while body(i) runs
      ++acc.hops[vpn];
      if (i % static_cast<long>(p) == static_cast<long>(vpn)) {
        ++acc.started[vpn];
        detail::note_exit(body(i, cur, vpn), i, acc.trip[vpn], *acc.quit);
      }
      ++i;
    }
  });
  return acc.finish(Method::kGeneral2, u);
}

namespace detail {

/// General-3's block runner: replays the recurrence from the worker's cursor
/// `pt` at index `prev` (at most `base`) over the gap to `base`, then walks
/// the claimed block [base, end) with the look-ahead: `next` for i + 1 runs
/// before body(i), so the walk ends one hop past the last body it ran.  The
/// QUIT is checked before every iteration after the first (the claim checked
/// `base`).  The cursor, its index, the started count and the exit minimum
/// stay in locals and are written back once, at the end; every hop advances
/// the index by one, so the hops are its distance moved.  Returns false when
/// the worker must stop: the QUIT cut the block short or the list ended
/// (recorded like an exit at the list's length, the index `prev` the end
/// cursor sits at).
/// Out of line and never cloned for the same reasons as doall's run_block.
template <class Cursor, class Next, class End, class Body>
[[gnu::noinline, gnu::noclone]] bool general3_block(
    Next& next, End& is_end, Body& body, long base, long end, unsigned vpn,
    Cursor& pt_io, long& prev_io, GeneralAccounting& acc) {
  QuitBound& quit = *acc.quit;
  Cursor pt = pt_io;
  long prev = prev_io;  // index pt refers to
  long ran = 0;
  long exit_min = std::numeric_limits<long>::max();
  bool go = true;
  while (go && prev < base) {
    pt = next(pt);
    ++prev;
    if (is_end(pt)) {
      note_exit(IterAction::kExit, prev, exit_min, quit);
      go = false;
    }
  }
  for (long i = base; go && i < end; ++i) {
    if (i > base && quit.cut(i)) {
      go = false;
      break;
    }
    const Cursor cur = pt;
    pt = next(cur);
    prev = i + 1;
    ++ran;
    note_exit(body(i, cur, vpn), i, exit_min, quit);
    if (is_end(pt)) {
      note_exit(IterAction::kExit, prev, exit_min, quit);
      go = false;
    }
  }
  acc.hops[vpn] += prev - prev_io;
  pt_io = pt;
  prev_io = prev;
  acc.started[vpn] += ran;
  acc.trip[vpn] = std::min(acc.trip[vpn], exit_min);
  return go;
}

}  // namespace detail

/// General-3: private traversal, dynamic self-scheduling.  Each processor
/// claims a block [base, base + take), replays the recurrence from the last
/// position it held over the gap to `base`, then walks the block one hop
/// ahead of its bodies, so hops stay close to one list length per processor
/// while keeping dynamic load balance.  The list length is unknown, so only
/// the time target bounds a block; the QUIT is checked at every iteration
/// inside it.
template <class Cursor, class Next, class End, class Body>
ExecReport while_general3(ThreadPool& pool, Cursor head, Next&& next, End&& is_end,
                          Body&& body, long u = std::numeric_limits<long>::max()) {
  const unsigned p = pool.size();
  detail::GeneralAccounting acc(p);
  Padded<std::atomic<long>> counter;  // own cache line: the claim counter

  pool.parallel([&](unsigned vpn) {
    Cursor pt = head;
    long prev = 0;  // index pt currently refers to
    if (is_end(pt)) {
      acc.record_end(0, vpn);
      return;
    }
    detail::ClaimBlock blk;
    for (;;) {
      const long take = blk.size();
      const long base = counter->fetch_add(take, std::memory_order_relaxed);
      if (base >= u || acc.quit->cut(base)) return;
      const long end = base > u - take ? u : base + take;
      if (!detail::general3_block(next, is_end, body, base, end, vpn, pt, prev,
                                  acc))
        return;
      blk.ran(end - base);
    }
  });
  return acc.finish(Method::kGeneral3, u);
}

}  // namespace wlp
