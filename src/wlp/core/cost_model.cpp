#include "wlp/core/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wlp {

double ideal_parallel_time(const LoopTiming& t, unsigned p,
                           DispatcherParallelism dp, double log_p_cost) {
  const double pd = static_cast<double>(p);
  switch (dp) {
    case DispatcherParallelism::kFull:
      // Closed-form dispatcher: everything parallelizes.
      return (t.t_rem + t.t_rec) / pd;
    case DispatcherParallelism::kPrefix:
      // Prefix evaluation adds a log(p) term to the fully parallel time.
      return (t.t_rem + t.t_rec) / pd + log_p_cost * std::log2(std::max(2.0, pd));
    case DispatcherParallelism::kSequential:
      // The recurrence is a serial chain; only the remainder parallelizes.
      return t.t_rem / pd + t.t_rec;
  }
  return t.t_seq();
}

double ideal_speedup(const LoopTiming& t, unsigned p, DispatcherParallelism dp,
                     double log_p_cost) {
  const double tipar = ideal_parallel_time(t, p, dp, log_p_cost);
  return tipar > 0 ? t.t_seq() / tipar : 1.0;
}

OverheadTerms overhead_terms(const OverheadProfile& o, unsigned p, double spid) {
  OverheadTerms terms;
  const double a = static_cast<double>(o.accesses) * o.access_cost;
  const double pd = static_cast<double>(p);
  if (o.needs_undo) {
    // Checkpoint before and undo after: both fully parallel, O(a/p) — unless
    // the runtime supplied measured values, in which case the batched
    // implementation's real cost replaces the model term (the PD analysis
    // term below stays additive either way).
    terms.t_b = o.measured_tb >= 0 ? o.measured_tb : a / pd;
    terms.t_a = o.measured_ta >= 0 ? o.measured_ta : a / pd;
  }
  // During-loop bookkeeping (time-stamps and/or shadow marks — one O(1)
  // operation per access either way) parallelizes only as far as the loop
  // itself does: Td = O(a / Spid).  This is the paper's single "during"
  // term; making it per-mechanism would overstate the Section 7 worst case.
  const double during_scale = std::max(1.0, spid);
  if (o.needs_undo || o.pd_test) terms.t_d = a / during_scale;
  // The PD test's post-execution analysis adds the fifth a/p term.
  if (o.pd_test) terms.t_a += a / pd;
  return terms;
}

double attainable_speedup(const LoopTiming& t, const OverheadProfile& o,
                          unsigned p, DispatcherParallelism dp,
                          double log_p_cost) {
  const double spid = ideal_speedup(t, p, dp, log_p_cost);
  const double tipar = ideal_parallel_time(t, p, dp, log_p_cost);
  const OverheadTerms terms = overhead_terms(o, p, spid);
  const double denom = tipar + terms.total();
  return denom > 0 ? t.t_seq() / denom : 1.0;
}

Prediction predict(const LoopTiming& t, const OverheadProfile& o, unsigned p,
                   DispatcherParallelism dp, double min_speedup,
                   double log_p_cost) {
  Prediction pr;
  pr.spid = ideal_speedup(t, p, dp, log_p_cost);
  pr.spat = attainable_speedup(t, o, p, dp, log_p_cost);
  pr.efficiency = pr.spid > 0 ? pr.spat / pr.spid : 0.0;
  // A failed PD test costs the speculative attempt (~5/p of Tseq in the
  // worst case) on top of the sequential re-execution.
  pr.failed_slowdown = o.pd_test ? 5.0 / static_cast<double>(p) : 0.0;
  pr.recommend = pr.spat >= min_speedup;
  return pr;
}

OverheadProfile observed_overheads(double marks_per_iteration,
                                   double expected_trip, bool pd_test,
                                   bool needs_undo, double access_cost,
                                   double measured_tb, double measured_ta) {
  OverheadProfile o;
  o.accesses = static_cast<long>(std::max(0.0, marks_per_iteration) *
                                 std::max(0.0, expected_trip));
  o.access_cost = access_cost;
  o.pd_test = pd_test;
  o.needs_undo = needs_undo;
  o.measured_tb = measured_tb;
  o.measured_ta = measured_ta;
  return o;
}

double BranchStats::exit_probability() const noexcept {
  const long total = exit_taken + exit_not_taken;
  if (total <= 0) return 0.0;
  return static_cast<double>(exit_taken) / static_cast<double>(total);
}

double estimate_trip(const BranchStats& b) {
  const double q = b.exit_probability();
  if (q <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / q;
}

double expected_speculative_speedup(const Prediction& pred, double p_parallel) {
  const double p = std::clamp(p_parallel, 0.0, 1.0);
  // A failure runs the loop sequentially again after the failed attempt:
  // time = (1 + failed_slowdown) * Tseq, i.e. speedup 1/(1 + slowdown).
  return p * pred.spat + (1.0 - p) / (1.0 + pred.failed_slowdown);
}

BackupDecision choose_backup(std::size_t n, std::size_t touched) noexcept {
  BackupDecision d;
  if (n == 0) return d;
  d.density = static_cast<double>(std::min(touched, n)) /
              static_cast<double>(n);
  // Cost model in checkpoint-copy units (one element copied to the backup
  // = 1).  The dense path pays the full checkpoint up front plus ~2 units
  // per touched location (the stamp on write, the restore at undo).  The
  // hash path skips the checkpoint but pays per touched location: a record
  // is a hash + probe + tag CAS + stamp fetch-max (~kHashOp copies' worth
  // of memory traffic), and the undo slot scan visits ~2x touched slots
  // (power-of-two table sized with 2x headroom) at ~kHashScan each.
  //
  //   dense(t) = n + 2t         hash(t) = kHashOp*t + 2*kHashScan*t
  //
  // Hash wins while t < n / (kHashOp + 2*kHashScan - 2), i.e. below a
  // density theta = 1/6.
  constexpr double kHashOp = 4.0;
  constexpr double kHashScan = 2.0;
  d.theta = 1.0 / (kHashOp + 2.0 * kHashScan - 2.0);
  d.kind = d.density < d.theta ? BackupKind::kHash : BackupKind::kDense;
  return d;
}

}  // namespace wlp
