#include "wlp/sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "wlp/obs/obs.hpp"

namespace wlp::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Min-heap of virtual processors keyed by next-available time.
struct Proc {
  double time = 0;
  long prev = 0;  ///< last traversal position held (General-3 replay)
  unsigned id = 0;
};
struct ProcLater {
  bool operator()(const Proc& a, const Proc& b) const { return a.time > b.time; }
};
using ProcQueue = std::priority_queue<Proc, std::vector<Proc>, ProcLater>;

ProcQueue make_procs(unsigned p) {
  ProcQueue q;
  for (unsigned k = 0; k < p; ++k) q.push({0.0, 0, k});
  return q;
}

enum class DispatchMode { kClosedForm, kSerializedNext, kReplayNext };

/// Iterations [base, base + len) of `lp` as a loop of their own: the
/// strip's work, its share of the trip and the per-iteration counts.
LoopProfile strip_of(const LoopProfile& lp, long base, long len) {
  const long n = static_cast<long>(lp.work.size());
  LoopProfile sub;
  sub.work.assign(lp.work.begin() + std::min(base, n),
                  lp.work.begin() + std::min(base + len, n));
  sub.trip = std::clamp(lp.trip - base, 0L, len);
  sub.u = len;
  sub.next_cost = lp.next_cost;
  sub.writes_per_iter = lp.writes_per_iter;
  sub.reads_per_iter = lp.reads_per_iter;
  sub.overshoot_does_work = lp.overshoot_does_work;
  return sub;
}

}  // namespace

double Simulator::sequential_time(const LoopProfile& lp) const {
  // trip remainder iterations, plus one dispatcher step and one termination
  // test per iteration, plus the final (exit-discovering) test.
  return lp.total_work_below(lp.trip) +
         static_cast<double>(lp.trip) * (lp.next_cost * m_.t_next + m_.t_term) +
         m_.t_term;
}

double Simulator::iteration_cost(const LoopProfile& lp, long i,
                                 const SimOptions& o) const {
  double c = m_.t_term;
  const bool does_work = i < lp.trip || lp.overshoot_does_work;
  if (does_work) {
    c += lp.work_at(i);
    if (o.stamps) c += static_cast<double>(lp.writes_per_iter) * m_.t_stamp;
    if (o.pd_test)
      c += static_cast<double>(lp.writes_per_iter + lp.reads_per_iter) * m_.t_shadow;
  }
  return c;
}

double Simulator::overheads_before(const LoopProfile& lp, unsigned p,
                                   const SimOptions& o) const {
  if (!o.checkpoint) return 0;
  return static_cast<double>(lp.state_words) * m_.t_word / static_cast<double>(p) +
         m_.barrier(p);
}

double Simulator::overheads_after(const LoopProfile& lp, unsigned p,
                                  const SimOptions& o, long overshot_writes) const {
  double t = 0;
  if (o.checkpoint && overshot_writes > 0)
    t += static_cast<double>(overshot_writes) * m_.t_word / static_cast<double>(p);
  if (o.pd_test)
    t += static_cast<double>(lp.shadow_cells) * m_.t_analysis / static_cast<double>(p) +
         m_.barrier(p);
  return t;
}

// ---------------------------------------------------------------------------
// Static cyclic private traversal (General-2)
// ---------------------------------------------------------------------------

SimResult Simulator::sim_static_cyclic(const LoopProfile& lp, unsigned p,
                                       const SimOptions& o) const {
  // Pass 1: every processor free-runs (as if no QUIT existed); the QUIT
  // lands when the earliest exit-observing iteration completes anywhere.
  double qt = kInf;
  for (unsigned k = 0; k < p; ++k) {
    double t = 0;
    for (long i = 0; i < lp.u; ++i) {
      t += lp.next_cost * m_.t_next;  // every processor hops every element
      if (i % static_cast<long>(p) != static_cast<long>(k)) continue;
      t += iteration_cost(lp, i, o);
      if (i >= lp.trip) {
        if (!lp.singular_exit || i == lp.trip) qt = std::min(qt, t);
        if (!lp.singular_exit) break;  // later exits complete later anyway
        if (i == lp.trip) break;       // singular: only this iteration matters
      }
    }
  }

  // Pass 2: re-walk with the cut applied — iterations at or beyond the trip
  // that would only START after the QUIT landed are never begun.
  SimResult r;
  double makespan = 0;
  for (unsigned k = 0; k < p; ++k) {
    double t = 0;
    for (long i = 0; i < lp.u; ++i) {
      if (i >= lp.trip && t >= qt) break;
      t += lp.next_cost * m_.t_next;
      if (i % static_cast<long>(p) != static_cast<long>(k)) continue;
      t += iteration_cost(lp, i, o);
      ++r.executed;
      if (i >= lp.trip) ++r.overshot;
    }
    makespan = std::max(makespan, t);
  }
  r.time = makespan;
  return r;
}

// ---------------------------------------------------------------------------
// Associative dispatcher: strip-wise parallel prefix + DOALL (Fig. 3)
// ---------------------------------------------------------------------------

SimResult Simulator::sim_assoc_prefix(const LoopProfile& lp, unsigned p,
                                      const SimOptions& o) const {
  SimResult r;
  const long strip = o.strip > 0 ? o.strip : lp.u;
  double t = 0;
  for (long base = 0; base < lp.u; base += strip) {
    const long len = std::min(strip, lp.u - base);
    // Prefix over the strip's dispatcher steps + RI-term scan, then barrier.
    const double pd = static_cast<double>(p);
    t += 2.0 * static_cast<double>(len) / pd * m_.t_prefix_op +
         std::log2(std::max(2.0, pd)) * m_.t_prefix_op +
         static_cast<double>(len) / pd * m_.t_term + m_.barrier(p);
    // Remainder DOALL over the strip's valid iterations.
    LoopProfile sub = strip_of(lp, base, len);
    if (!lp.overshoot_does_work) sub.u = sub.trip;
    sub.next_cost = 0;  // terms precomputed
    const SimResult stripped = run(wlp::Method::kInduction2, sub, p,
                                   SimOptions{o.stamps, false, o.pd_test, 0, 0});
    t += stripped.time + m_.barrier(p);
    r.executed += stripped.executed;
    r.overshot += stripped.overshot;
    if (lp.trip < base + len) break;  // exit found in this strip
  }
  r.time = t;
  return r;
}

// ---------------------------------------------------------------------------
// Wu & Lewis baselines
// ---------------------------------------------------------------------------

SimResult Simulator::sim_wu_lewis_distribute(const LoopProfile& lp, unsigned p,
                                             const SimOptions& o) const {
  SimResult r;
  // Sequential prologue: with an RI terminator the dispatcher pass stops at
  // the exit; with RV it must precompute all u terms (superfluous values).
  const long terms = lp.overshoot_does_work ? lp.u : lp.trip;
  double t = static_cast<double>(terms) * (lp.next_cost * m_.t_next + m_.t_term) +
             m_.barrier(p);
  LoopProfile sub = lp;
  sub.next_cost = 0;  // terms stored in the prologue's array
  sub.u = terms;
  const SimResult doall = run(wlp::Method::kInduction2, sub, p,
                              SimOptions{o.stamps, false, o.pd_test, 0, 0});
  t += doall.time;
  r.executed = doall.executed + terms;
  r.overshot = doall.overshot;
  r.time = t;
  return r;
}

SimResult Simulator::sim_wu_lewis_doacross(const LoopProfile& lp, unsigned p,
                                           const SimOptions& o) const {
  SimResult r;
  ProcQueue procs = make_procs(p);
  double chain_end = 0;  // completion of the previous sequential phase
  double makespan = 0;
  const double seq_phase = lp.next_cost * m_.t_next + m_.t_term + m_.t_post_wait;
  for (long i = 0; i < lp.trip; ++i) {
    Proc pr = procs.top();
    procs.pop();
    const double seq_start = std::max(pr.time + m_.t_claim, chain_end);
    chain_end = seq_start + seq_phase;
    const double done = chain_end + iteration_cost(lp, i, o) - m_.t_term;
    pr.time = done;
    makespan = std::max(makespan, done);
    procs.push(pr);
    ++r.executed;
  }
  r.time = std::max(makespan, chain_end + m_.t_term);  // final exit discovery
  return r;
}

// ---------------------------------------------------------------------------
// Strip-mined variant (Section 4).  The sliding window (Section 8) is
// run()'s dynamic loop with its window bound.
// ---------------------------------------------------------------------------

SimResult Simulator::sim_strip_mined(const LoopProfile& lp, unsigned p,
                                     const SimOptions& o) const {
  SimResult r;
  const long strip = o.strip > 0 ? o.strip : lp.u;
  double t = 0;
  for (long base = 0; base < lp.u; base += strip) {
    const long len = std::min(strip, lp.u - base);
    const SimResult s = run(wlp::Method::kInduction2, strip_of(lp, base, len),
                            p, SimOptions{o.stamps, false, o.pd_test, 0, 0});
    t += s.time + m_.barrier(p);
    r.executed += s.executed;
    r.overshot += s.overshot;
    if (lp.trip < base + len) break;
  }
  r.time = t;
  return r;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

SimResult Simulator::run(wlp::Method method, const LoopProfile& lp, unsigned p,
                         const SimOptions& opts) const {
  if (p == 0) throw std::invalid_argument("Simulator::run: p must be >= 1");
  SimResult r;
  // Counts nested sub-runs too (strip/prefix methods re-enter run() per
  // strip), which is exactly the figure-bench work the metric is after.
  WLP_OBS_COUNT("wlp.sim.runs", 1);
  WLP_TRACE_SCOPE("sim.run", static_cast<std::uint64_t>(method), p);

  auto cost = [this](const LoopProfile& l, long i, const SimOptions& o) {
    return iteration_cost(l, i, o);
  };
  // `window` > 0 adds the Section 8.2 bound: iteration i starts only after
  // iteration i - window has completed.
  auto dynamic = [&](bool use_quit, DispatchMode mode, long window = 0) {
    SimResult res;
    ProcQueue procs = make_procs(p);
    std::vector<double> completion(
        window > 0 ? static_cast<std::size_t>(lp.u) : 0);
    double lock_free = 0;
    double quit_time = kInf;
    double makespan = 0;
    for (long i = 0; i < lp.u; ++i) {
      Proc pr = procs.top();
      if (use_quit && i >= lp.trip && pr.time >= quit_time) break;
      procs.pop();
      double start = pr.time + m_.t_claim;
      double dispatch = 0;
      switch (mode) {
        case DispatchMode::kClosedForm:
          // Evaluating the closed form is not free; it is simply paid in
          // parallel rather than on a serial chain.
          dispatch = lp.next_cost * m_.t_next;
          break;
        case DispatchMode::kSerializedNext: {
          const double acq = std::max(pr.time, lock_free);
          const double rel = acq + m_.t_lock + lp.next_cost * m_.t_next;
          lock_free = rel;
          start = rel;
          break;
        }
        case DispatchMode::kReplayNext: {
          dispatch = static_cast<double>(i - pr.prev) * lp.next_cost * m_.t_next;
          pr.prev = i;
          break;
        }
      }
      if (window > 0 && i >= window)
        start = std::max(start,
                         completion[static_cast<std::size_t>(i - window)]);
      const double done = start + dispatch + cost(lp, i, opts);
      if (window > 0) completion[static_cast<std::size_t>(i)] = done;
      if (i >= lp.trip) {
        if (!lp.singular_exit || i == lp.trip)
          quit_time = std::min(quit_time, done);
        ++res.overshot;
      }
      ++res.executed;
      pr.time = done;
      makespan = std::max(makespan, done);
      procs.push(pr);
    }
    res.time = makespan;
    return res;
  };

  switch (method) {
    case wlp::Method::kSequential:
      r.time = sequential_time(lp);
      r.executed = lp.trip;
      break;
    case wlp::Method::kInduction1:
      r = dynamic(false, DispatchMode::kClosedForm);
      break;
    case wlp::Method::kInduction2:
    case wlp::Method::kDoany:
      r = dynamic(true, DispatchMode::kClosedForm);
      break;
    case wlp::Method::kGeneral1:
      r = dynamic(true, DispatchMode::kSerializedNext);
      break;
    case wlp::Method::kGeneral2:
      r = sim_static_cyclic(lp, p, opts);
      break;
    case wlp::Method::kGeneral3:
      r = dynamic(true, DispatchMode::kReplayNext);
      break;
    case wlp::Method::kAssocPrefix:
      r = sim_assoc_prefix(lp, p, opts);
      break;
    case wlp::Method::kWuLewisDistribute:
      r = sim_wu_lewis_distribute(lp, p, opts);
      break;
    case wlp::Method::kWuLewisDoacross:
      r = sim_wu_lewis_doacross(lp, p, opts);
      break;
    case wlp::Method::kStripMined:
      r = sim_strip_mined(lp, p, opts);
      break;
    case wlp::Method::kSlidingWindow:
      r = dynamic(true, DispatchMode::kClosedForm, opts.window);
      break;
  }

  r.t_before = overheads_before(lp, p, opts);
  r.t_after = overheads_after(lp, p, opts, r.overshot * lp.writes_per_iter);
  r.time += r.t_before + r.t_after;
  const double seq = sequential_time(lp);
  r.speedup = r.time > 0 ? seq / r.time : 0;
  return r;
}

std::vector<double> Simulator::speedup_curve(wlp::Method method,
                                             const LoopProfile& lp,
                                             const std::vector<int>& ps,
                                             const SimOptions& opts) const {
  std::vector<double> out;
  out.reserve(ps.size());
  for (int p : ps) out.push_back(run(method, lp, static_cast<unsigned>(p), opts).speedup);
  return out;
}

}  // namespace wlp::sim
