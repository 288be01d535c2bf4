// Ablation: strip-mining (Sections 4 / 8.1).  Strip size bounds both the
// time-stamp memory (strip x writes/iteration) and the overshoot, but every
// strip boundary is a global synchronization.  Where is the knee?
#include <cstdio>

#include "bench_common.hpp"
#include "wlp/core/strategies.hpp"
#include "wlp/workloads/track.hpp"

using namespace wlp;
using namespace wlp::bench;

int main() {
  std::printf("==== Ablation: strip size (TRACK-shaped loop, p = 8) ====\n\n");

  const workloads::TrackLoop loop(
      {.candidates = 5000, .error_position = 0.93, .seed = 7});
  const sim::Simulator sim;
  sim::LoopProfile lp = loop.profile();
  sim::SimOptions opts;
  opts.stamps = true;
  opts.checkpoint = true;

  // Reference: unstripped Induction-2.
  const double plain = sim.run(Method::kInduction2, lp, 8, opts).speedup;

  TextTable table({"strip", "sim speedup @8", "vs unstripped", "overshoot bound",
                   "stamp words bound", "runtime overshoot"});

  ThreadPool pool;
  for (const long strip : {16L, 64L, 256L, 1024L, 4096L}) {
    opts.strip = strip;
    const sim::SimResult r = sim.run(Method::kStripMined, lp, 8, opts);

    // The real runtime's strip-mined execution for the same loop shape.
    const ExecReport rt = strip_mined_while(pool, lp.u, strip, [&](long i, unsigned) {
      return i == lp.trip ? IterAction::kExit : IterAction::kContinue;
    });

    table.row({TextTable::num(strip), TextTable::num(r.speedup, 2),
               TextTable::num(r.speedup / plain * 100, 1) + "%",
               TextTable::num(strip),
               TextTable::num(strip * lp.writes_per_iter),
               TextTable::num(rt.overshot)});
  }
  table.print();
  std::printf("\nunstripped Induction-2 speedup: %.2f\n", plain);
  std::printf("small strips trade speedup (barriers) for memory; the knee is\n"
              "where the strip covers a few scheduling quanta per processor.\n");
  return 0;
}
