#include "wlp/analysis/plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace wlp::ir {

namespace {

bool is_recurrence_block(BlockKind k) {
  return k == BlockKind::kInduction || k == BlockKind::kAssociative ||
         k == BlockKind::kGeneralRecurrence;
}

}  // namespace

ParallelPlan make_plan(const Loop& loop, unsigned p,
                       const wlp::LoopTiming* timing) {
  ParallelPlan plan;
  const Distribution dist = fuse(loop, distribute(loop));
  plan.privatized_scalars = privatizable_scalars(loop);
  plan.pd_arrays = unanalyzable_arrays(loop);

  // The dispatching recurrence is the hierarchically top-level one: the
  // first recurrence block in the condensation's topological order.
  bool dispatcher_found = false;
  std::vector<int> dispatcher_stmts;
  for (const Block& b : dist.blocks) {
    if (is_recurrence_block(b.rec.kind)) {
      if (!dispatcher_found) {
        plan.dispatcher = dispatcher_kind(b.rec);
        dispatcher_found = true;
      }
      dispatcher_stmts.insert(dispatcher_stmts.end(), b.stmts.begin(),
                              b.stmts.end());
    }
  }
  if (!dispatcher_found) {
    // No detectable recurrence: the loop is a plain DO loop with exits;
    // its counter is the (monotonic) induction dispatcher.
    plan.dispatcher = wlp::DispatcherKind::kMonotonicInduction;
  }

  // RI/RV classification per exit (Section 2's definition): an exit is
  // remainder-invariant iff everything it reads is the dispatcher itself or
  // computed outside the loop — i.e. no scalar defined by a non-recurrence
  // statement and no array the loop writes.
  const auto info = summarize(loop);
  std::set<std::string> arrays_written;
  std::map<std::string, int> scalar_def_stmt;
  for (std::size_t k = 0; k < loop.body.size(); ++k) {
    for (const auto& a : info[k].accesses)
      if (a.is_write) arrays_written.insert(a.array);
    for (const auto& x : info[k].scalar_defs) scalar_def_stmt[x] = static_cast<int>(k);
  }
  auto in_dispatcher = [&](int stmt) {
    return std::find(dispatcher_stmts.begin(), dispatcher_stmts.end(), stmt) !=
           dispatcher_stmts.end();
  };
  bool any_rv_exit = false;
  for (std::size_t k = 0; k < loop.body.size(); ++k) {
    if (!info[k].is_exit) continue;
    bool rv = false;
    for (const auto& x : info[k].scalar_uses) {
      const auto it = scalar_def_stmt.find(x);
      if (it != scalar_def_stmt.end() && !in_dispatcher(it->second)) rv = true;
    }
    for (const auto& a : info[k].accesses)
      if (arrays_written.count(a.array)) rv = true;
    if (rv) any_rv_exit = true;
  }
  plan.terminator = any_rv_exit ? wlp::TerminatorClass::kRemainderVariant
                                : wlp::TerminatorClass::kRemainderInvariant;
  plan.may_overshoot = wlp::may_overshoot(plan.dispatcher, plan.terminator);

  for (const Block& b : dist.blocks) {
    PlanStep step;
    step.block = b;
    switch (b.rec.kind) {
      case BlockKind::kInduction:
        step.method = wlp::Method::kInduction2;
        step.note = "closed-form dispatcher; fold into consuming DOALL";
        break;
      case BlockKind::kAssociative:
        step.method = wlp::Method::kAssocPrefix;
        step.note = "evaluate terms by parallel prefix (Fig. 3)";
        break;
      case BlockKind::kGeneralRecurrence:
        step.method = wlp::Method::kGeneral3;
        step.note = "sequential chain: embed traversal in dynamic DOALL (Fig. 4)";
        break;
      case BlockKind::kParallel:
        step.method = wlp::Method::kInduction2;
        step.needs_undo = plan.may_overshoot;
        step.note = "independent remainder: DOALL";
        break;
      case BlockKind::kSequential:
        step.method = wlp::Method::kWuLewisDoacross;
        step.note = "unrecognized cycle: DOACROSS scheduling (Section 6)";
        break;
      case BlockKind::kUnknownAccess:
        step.method = wlp::Method::kInduction2;
        step.speculative = true;
        step.needs_undo = true;
        step.note = "unanalyzable accesses: speculate under the PD test (Section 5)";
        break;
    }
    plan.steps.push_back(std::move(step));
  }

  if (timing != nullptr) {
    wlp::OverheadProfile oh;
    oh.pd_test = !plan.pd_arrays.empty();
    oh.needs_undo = plan.may_overshoot;
    oh.accesses = static_cast<long>(loop.body.size()) * loop.max_iters;
    const wlp::Prediction pred = wlp::predict(
        *timing, oh, p, wlp::dispatcher_parallelism(plan.dispatcher));
    plan.recommended = pred.recommend;
    plan.predicted_speedup = pred.spat;
  }
  return plan;
}

std::string ParallelPlan::to_text(const Loop& loop) const {
  std::ostringstream os;
  os << "plan for '" << loop.name << "': dispatcher=" << wlp::to_string(dispatcher)
     << " terminator=" << wlp::to_string(terminator)
     << " overshoot=" << (may_overshoot ? "yes" : "no") << '\n';
  if (!privatized_scalars.empty()) {
    os << "  privatized scalars:";
    for (const auto& s : privatized_scalars) os << ' ' << s;
    os << '\n';
  }
  if (!pd_arrays.empty()) {
    os << "  PD-tested arrays:";
    for (const auto& a : pd_arrays) os << ' ' << a;
    os << '\n';
  }
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const PlanStep& st = steps[k];
    os << "  step " << k << ": " << wlp::to_string(st.method) << " ["
       << to_string(st.block.rec.kind) << "]";
    if (st.speculative) os << " speculative";
    if (st.needs_undo) os << " +undo";
    os << " — " << st.note << '\n';
    for (int s : st.block.stmts)
      os << "      s" << s << ": "
         << to_string(loop.body[static_cast<std::size_t>(s)]) << '\n';
  }
  return os.str();
}

}  // namespace wlp::ir
