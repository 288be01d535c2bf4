#include "wlp/mem/budget.hpp"

#include "wlp/obs/obs.hpp"

namespace wlp::mem {

Budget::Budget() {
  // Live provider: every snapshot sees the ledger's current values without
  // the hot charge points ever touching the registry.  Registered once for
  // the process lifetime (the Budget singleton is leaked).
  obs::Registry::instance().add_provider([this](obs::Snapshot& out) {
    const BudgetSnapshot s = snapshot();
    auto push = [&out](const char* name, obs::MetricSample::Kind kind,
                       long v) {
      obs::MetricSample m;
      m.name = name;
      m.kind = kind;
      m.value = v;
      out.push_back(std::move(m));
    };
    using Kind = obs::MetricSample::Kind;
    push("wlp.mem.bytes_live", Kind::kGauge, s.bytes_live);
    push("wlp.mem.bytes_peak", Kind::kGauge, s.bytes_peak);
    push("wlp.mem.arena_allocs", Kind::kCounter, s.arena_allocs);
    push("wlp.mem.slow_allocs", Kind::kCounter, s.slow_allocs);
    push("wlp.mem.frees", Kind::kCounter, s.frees);
  });
}

Budget& Budget::process() {
  static Budget* b = new Budget();  // leaked: see header
  return *b;
}

}  // namespace wlp::mem
