// Ablation: backup strategies for undoing overshoot (Section 4).
//   * full checkpoint  — copy the whole array before the loop (3x memory);
//   * hash-table backup — save only the touched locations (sparse accesses);
//   * run-twice        — first run finds the trip count, second run is a
//                        clean DOALL with no stamps at all.
// We compare memory footprint and simulated execution time on a loop that
// writes sparsely into a large state array.
#include <cstdio>

#include "bench_common.hpp"
#include "wlp/core/sparse_backup.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/workloads/track.hpp"

using namespace wlp;
using namespace wlp::bench;

int main() {
  std::printf("==== Ablation: backup strategy (sparse writes into 1M words) ====\n\n");

  const long state_words = 1 << 20;  // the array the loop *could* touch
  const long iters = 20000, trip = 15000, writes_per_iter = 2;

  // ---- memory ---------------------------------------------------------------
  const double full_checkpoint_mb =
      static_cast<double>(state_words) * (8 /*copy*/ + 8 /*stamp*/) / 1e6;
  HashBackup<double> hash(static_cast<std::size_t>(iters * writes_per_iter * 2));
  ThreadPool pool;
  std::vector<double> state(static_cast<std::size_t>(state_words), 0.0);
  doall(pool, 0, iters, [&](long i, unsigned) {
    for (long w = 0; w < writes_per_iter; ++w) {
      const auto idx = static_cast<std::size_t>((i * 37 + w * 17) % state_words);
      hash.record(i, idx, state[idx]);
      state[idx] = 1.0;
    }
  });
  const double hash_mb = static_cast<double>(hash.memory_bytes()) / 1e6;
  const long undone = hash.undo_slots(state, trip, 0, hash.capacity());

  // ---- simulated time --------------------------------------------------------
  const sim::Simulator sim;
  sim::LoopProfile lp;
  lp.u = iters;
  lp.trip = trip;
  lp.work.assign(static_cast<std::size_t>(iters), 6.0);
  lp.writes_per_iter = writes_per_iter;
  lp.overshoot_does_work = true;

  sim::SimOptions full;
  full.stamps = true;
  full.checkpoint = true;
  sim::LoopProfile lp_full = lp;
  lp_full.state_words = state_words;  // whole array copied
  const double t_full = sim.run(Method::kInduction2, lp_full, 8, full).time;

  sim::LoopProfile lp_hash = lp;
  lp_hash.state_words = iters * writes_per_iter;  // only touched words
  const double t_hash = sim.run(Method::kInduction2, lp_hash, 8, full).time;

  // Run-twice: pass 1 discovers the trip (term-only overshoot beyond it),
  // pass 2 is a stamp-free DOALL of exactly trip iterations.
  const double t_pass1 = sim.run(Method::kInduction2, lp, 8).time;
  sim::LoopProfile lp_clean = lp;
  lp_clean.u = trip;
  const double t_pass2 = sim.run(Method::kInduction2, lp_clean, 8).time;
  const double t_twice = t_pass1 + t_pass2;

  TextTable table({"strategy", "backup memory (MB)", "sim time @8", "notes"});
  table.row({"full checkpoint", TextTable::num(full_checkpoint_mb, 2),
             TextTable::num(t_full, 0), "3x memory of the state array"});
  table.row({"hash-table backup", TextTable::num(hash_mb, 2),
             TextTable::num(t_hash, 0),
             "memory ~ touched set (" + TextTable::num(static_cast<long>(hash.entries())) +
                 " words)"});
  table.row({"run-twice", "0.00", TextTable::num(t_twice, 0),
             "no stamps; pays the loop twice"});
  table.print();

  std::printf("\nhash backup restored %ld overshot writes correctly\n", undone);
  std::printf("sparse access pattern: hash backup keeps the checkpoint cost\n"
              "proportional to the touched set, exactly Section 4's point.\n");
  return 0;
}
