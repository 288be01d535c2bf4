// Ablation: static vs dynamic iteration spans under an RV terminator
// (Section 3.3).  "The span of iterations that are executing at any given
// time might be larger for the static assignment method than for the
// dynamic assignment method.  If the termination condition of the loop is
// RV, then it is likely that more iterations would need to be undone in the
// static assignment method."  We measure exactly that, on the real runtime
// and on the simulated machine.
//
// The dynamic methods claim blocks sized from measured time (General-3, and
// Induction-2 through doall_quit's default schedule), so under an RV exit
// their overshoot grows with the block: about p x kBlockTarget of work.  The
// table therefore also gives each method's wall time per started iteration
// and what its overshoot cost, spread over the useful iterations.
#include <chrono>
#include <cstdio>
#include <numeric>

#include "bench_common.hpp"
#include "wlp/core/while_general.hpp"
#include "wlp/core/while_induction.hpp"
#include "wlp/support/prng.hpp"
#include "wlp/support/stats.hpp"

using namespace wlp;
using namespace wlp::bench;

namespace {

/// Overshoot and wall time of repeated runs of one method.
struct Runtime {
  RunningStats overshoot;
  RunningStats ns_per_iter;  ///< wall time / started iterations

  template <class Run>
  void add(Run&& run) {
    const auto t0 = std::chrono::steady_clock::now();
    const ExecReport r = run();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    overshoot.add(static_cast<double>(r.overshot));
    ns_per_iter.add(ns / static_cast<double>(std::max(1L, r.started)));
  }

  /// The overshoot's share of the wall time, per useful iteration.
  double overshoot_ns_per_useful(long trip) const {
    return overshoot.mean() * ns_per_iter.mean() / static_cast<double>(trip);
  }
};

}  // namespace

int main() {
  std::printf("==== Ablation: overshoot under static vs dynamic assignment ====\n\n");

  const long n = 20000, exit_at = 10000;
  std::vector<long> chain(static_cast<std::size_t>(n));
  std::iota(chain.begin(), chain.end(), 1);
  chain.back() = -1;
  auto next = [&](long c) { return chain[static_cast<std::size_t>(c)]; };
  auto is_end = [](long c) { return c < 0; };
  auto body = [&](long i, long, unsigned) {
    return i == exit_at ? IterAction::kExit : IterAction::kContinue;
  };
  auto ind_body = [&](long i, unsigned) {
    return i == exit_at ? IterAction::kExit : IterAction::kContinue;
  };

  // Real runtime, several repetitions (scheduling noise).
  ThreadPool pool(8);
  Runtime g2, g3, ind2;
  for (int rep = 0; rep < 10; ++rep) {
    g2.add([&] { return while_general2(pool, 0L, next, is_end, body); });
    g3.add([&] { return while_general3(pool, 0L, next, is_end, body); });
    ind2.add([&] { return while_induction2(pool, n, ind_body); });
  }

  // Simulated machine (deterministic).  Variable work is what makes static
  // assignment spread: a processor stuck on heavy iterations lags while its
  // peers race far ahead of the eventual exit point.
  const sim::Simulator sim;
  sim::LoopProfile lp;
  lp.u = n;
  lp.trip = exit_at;
  lp.work.resize(static_cast<std::size_t>(n));
  Xoshiro256 rng(17);
  for (auto& w : lp.work) w = rng.chance(0.1) ? 40.0 : 2.0;
  lp.next_cost = 1.0;
  lp.overshoot_does_work = true;
  lp.singular_exit = true;  // the exit is a single planted iteration
  const sim::SimResult s2 = sim.run(Method::kGeneral2, lp, 8);
  const sim::SimResult s3 = sim.run(Method::kGeneral3, lp, 8);

  TextTable table({"method", "runtime overshoot (mean of 10)", "ns/iter",
                   "overshoot ns per useful iter", "sim overshoot @8"});
  const auto row = [&](const char* name, const Runtime& rt, const std::string& sim_col) {
    table.row({name, TextTable::num(rt.overshoot.mean(), 1),
               TextTable::num(rt.ns_per_iter.mean(), 1),
               TextTable::num(rt.overshoot_ns_per_useful(exit_at), 2), sim_col});
  };
  row("General-2 (static)", g2, TextTable::num(s2.overshot));
  row("General-3 (dynamic)", g3, TextTable::num(s3.overshot));
  row("Induction-2 (dynamic)", ind2, "-");
  table.print();

  std::printf("\nblock bound: p x kBlockTarget = %u x %.1f us = %.1f us of work past the exit\n",
              pool.size(), std::chrono::duration<double, std::micro>(kBlockTarget).count(),
              pool.size() * std::chrono::duration<double, std::micro>(kBlockTarget).count());
  std::printf("sim: static assignment undoes %.1fx the iterations of dynamic\n",
              s3.overshot > 0
                  ? static_cast<double>(s2.overshot) / static_cast<double>(s3.overshot)
                  : 0.0);
  return 0;
}
