// Multi-array round microbenchmark: the SpecRound's fused passes vs the
// per-array loops they replaced.
//
// Two questions, answered on the real host (not the simulator):
//   1. Fused undo — ONE round over all k arrays, whose commit is one pool
//      pass over every array's index-stripe log walks, vs the old driver
//      loop (k undo passes: one single-target round per array, each
//      committing on its own).
//      k in {2, 4, 8} at constant total footprint (2^18 elements split
//      across the arrays), in two regimes:
//        * dense: every element written, half the range overshot;
//        * strided: every 8th element written (an eighth of the writes, so
//          the per-dispatch overhead is a larger fraction of the work).
//      Both sides run on the SAME arrays with identical untimed
//      reset+checkpoint+write preparation, min over alternating reps.  The
//      gate (bench/guard.py) is PARITY on 2 and 4 arrays: the win is one
//      dispatch chain and one obs publication instead of k, which only grows
//      with k.
//   2. Steady state — a warm 2-array strip loop re-run under the process
//      mem::Budget: arena blocks and OS allocations, both gated at zero.
//
// Emits BENCH_txn.json (path overridable via argv[1]); exits nonzero only
// when a functional check fails (the fused and per-array undo disagree, a
// strip fails) or the file cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "wlp/core/spec_round.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/speculative_strips.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

struct FusedPoint {
  int arrays = 0;
  double fused_us = 0;
  double per_array_us = 0;
  double ratio = 0;  ///< median of per-rep paired per_array/fused ratios
  long undone = 0;
};

/// One fused-vs-per-array sample: k arrays totalling
/// `total_n` elements, every `stride`-th element of each written, half the
/// written range overshot.  Per rep and per side: untimed begin (reset +
/// fused checkpoint) + writes, then the timed undo — the round's fused
/// commit vs the retired driver loop (one undo dispatch per array, through
/// a single-target round each).
FusedPoint fused_regime(wlp::ThreadPool& pool, int k, std::size_t total_n,
                        std::size_t stride, int reps) {
  const std::size_t n = total_n / static_cast<std::size_t>(k);
  FusedPoint pt;
  pt.arrays = k;

  std::vector<std::unique_ptr<wlp::SpecArray<double>>> arrays;
  std::vector<wlp::SpecTarget*> targets;
  for (int a = 0; a < k; ++a) {
    arrays.push_back(std::make_unique<wlp::SpecArray<double>>(
        std::vector<double>(n, 0.0), pool.size(), /*run_pd_test=*/false));
    targets.push_back(arrays.back().get());
  }
  // Every round writes into one report; its undone_writes deltas are the
  // two sides' undo counts.
  wlp::ExecReport report;
  wlp::SpecRound round(
      pool, std::span<wlp::SpecTarget* const>(targets.data(), targets.size()),
      report);
  std::vector<std::unique_ptr<wlp::SpecRound>> singles;
  for (wlp::SpecTarget*& t : targets)
    singles.push_back(std::make_unique<wlp::SpecRound>(
        pool, std::span<wlp::SpecTarget* const>(&t, 1), report));

  const long writes_per_array = static_cast<long>(n / stride);
  const long trip = writes_per_array / 2;
  const auto fill = [&] {
    round.begin();
    for (auto& arr : arrays)
      for (long i = 0; i < writes_per_array; ++i)
        arr->set(0, i, static_cast<std::size_t>(i) * stride, 1.0);
  };

  std::vector<double> f_us, p_us;
  long fused_undone = 0, loop_undone = 0;
  const auto fused_pass = [&](bool record) {
    fill();
    const long before = report.undone_writes;
    const auto t0 = Clock::now();
    round.commit(trip);
    if (record) f_us.push_back(seconds_since(t0) * 1e6);
    fused_undone = report.undone_writes - before;
  };
  const auto loop_pass = [&](bool record) {
    fill();
    const long before = report.undone_writes;
    const auto t0 = Clock::now();
    for (auto& single : singles) single->commit(trip);
    if (record) p_us.push_back(seconds_since(t0) * 1e6);
    loop_undone = report.undone_writes - before;
  };
  for (int r = -1; r < reps; ++r) {  // rep -1 = warmup, not recorded
    if (r % 2 == 0) {
      fused_pass(r >= 0);
      loop_pass(r >= 0);
    } else {
      loop_pass(r >= 0);
      fused_pass(r >= 0);
    }
    pt.undone = fused_undone;
    if (fused_undone != loop_undone) {
      std::fprintf(stderr, "undo mismatch: fused %ld vs per-array %ld\n",
                   fused_undone, loop_undone);
      std::exit(1);
    }
  }
  pt.fused_us = min_of(f_us);
  pt.per_array_us = min_of(p_us);
  // Paired statistic for the flag: both sides move identical bytes, so the
  // signal (dispatch-chain fusion) is small against time-slice jitter on a
  // shared host.  The two passes of one rep run back-to-back under the
  // same host conditions; the median of their per-rep ratios cancels the
  // drift a min-over-independent-samples comparison keeps.
  std::vector<double> ratios(f_us.size());
  for (std::size_t i = 0; i < f_us.size(); ++i) ratios[i] = p_us[i] / f_us[i];
  pt.ratio = wlp::median(ratios);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_txn.json";
  // The A/B comparisons here are identical-work (same arrays, same bytes
  // moved), so the deltas are dispatch overhead — small against host
  // jitter on a shared box.  More reps than the other microbenches: the
  // min converges on the uncontended cost.
  constexpr int kReps = 31;
  wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());

  // ---- 1. fused undo vs per-array dispatch loop ---------------------------
  constexpr std::size_t kTotal = 1 << 18;
  std::printf("== fused round undo vs per-array loop (2^18 elements total; us) ==\n");
  std::vector<FusedPoint> dense_pts, strided_pts;
  for (int k : {2, 4, 8}) {
    dense_pts.push_back(fused_regime(pool, k, kTotal, 1, kReps));
    const FusedPoint& p = dense_pts.back();
    std::printf("  dense    k=%d  fused %8.1f  per-array %8.1f  (median %.2fx)  undone=%ld\n",
                p.arrays, p.fused_us, p.per_array_us, p.ratio, p.undone);
  }
  for (int k : {2, 4, 8}) {
    strided_pts.push_back(fused_regime(pool, k, kTotal, 8, kReps));
    const FusedPoint& p = strided_pts.back();
    std::printf("  stride-8 k=%d  fused %8.1f  per-array %8.1f  (median %.2fx)  undone=%ld\n",
                p.arrays, p.fused_us, p.per_array_us, p.ratio, p.undone);
  }

  // ---- 2. steady-state allocations under the fused round ------------------
  long steady_arena_allocs, steady_slow_allocs;
  {
    const long n = 64 * 256, strip = 256;
    wlp::SpecArray<double> a(
        std::vector<double>(static_cast<std::size_t>(n), 0.0), pool.size(),
        true);
    wlp::SpecArray<double> b(
        std::vector<double>(static_cast<std::size_t>(n), 0.0), pool.size(),
        true);
    wlp::SpecTarget* targets[] = {&a, &b};
    // Warm every worker's logs, as in TxnSteadyState: one share per vpn
    // opens their first segments.  A worker the self-sized claims skip in
    // the warm-up runs would otherwise open them inside the measured
    // rounds.
    pool.parallel([&](unsigned vpn) {
      a.begin_iteration(vpn, 0);
      b.begin_iteration(vpn, 0);
      a.set(vpn, 0, vpn, 1.0);
      b.set(vpn, 0, vpn, 2.0);
    });
    auto run_once = [&] {
      return wlp::strip_speculative_while(
          pool, n, strip, std::span<wlp::SpecTarget* const>(targets, 2),
          [&](long i, unsigned vpn) {
            a.begin_iteration(vpn, i);
            b.begin_iteration(vpn, i);
            a.set(vpn, i, static_cast<std::size_t>(i), 1.0);
            b.set(vpn, i, static_cast<std::size_t>(i), 2.0);
            return wlp::IterAction::kContinue;
          },
          [&](long, long end) { return end; });
    };
    (void)run_once();  // warm: pooled buffers, log segments, PD scratch
    (void)run_once();
    const wlp::mem::BudgetSnapshot s0 = wlp::mem::Budget::process().snapshot();
    for (int round = 0; round < 20; ++round)
      if (run_once().strips_failed != 0) std::exit(1);
    const wlp::mem::BudgetSnapshot s1 = wlp::mem::Budget::process().snapshot();
    steady_arena_allocs = s1.arena_allocs - s0.arena_allocs;
    steady_slow_allocs = s1.slow_allocs - s0.slow_allocs;
  }
  std::printf("\n== steady state, 20 warm 2-array strip runs ==\n");
  std::printf("  arena blocks handed out : %ld\n", steady_arena_allocs);
  std::printf("  OS allocations          : %ld\n", steady_slow_allocs);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_txn\",\n");
  std::fprintf(f, "  \"host_hw_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"fused_undo\": {\n");
  std::fprintf(f, "    \"method\": \"%d alternating reps on the SAME k arrays (2^18 elements total); per side: untimed begin+writes, timed undo; fused is one round's commit, one pool pass over every array's index-stripe log walks, per_array the retired driver loop, one single-target round commit per array; speedup is the MEDIAN of per-rep paired per_array/fused ratios (both sides move identical bytes, so pairing cancels host drift the per-side mins keep)\",\n",
               kReps);
  const auto emit_points = [&](const char* key,
                               const std::vector<FusedPoint>& pts,
                               const char* tail) {
    std::fprintf(f, "    \"%s\": [\n", key);
    for (std::size_t i = 0; i < pts.size(); ++i)
      std::fprintf(f,
                   "      {\"arrays\": %d, \"fused_us\": %.2f, "
                   "\"per_array_us\": %.2f, \"speedup\": %.3f, \"undone\": %ld}%s\n",
                   pts[i].arrays, pts[i].fused_us, pts[i].per_array_us,
                   pts[i].ratio, pts[i].undone,
                   i + 1 < pts.size() ? "," : "");
    std::fprintf(f, "    ]%s\n", tail);
  };
  emit_points("dense", dense_pts, ",");
  emit_points("stride8", strided_pts, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"steady_state\": {\"rounds\": 20, \"arena_allocs\": %ld, "
               "\"slow_allocs\": %ld},\n",
               steady_arena_allocs, steady_slow_allocs);
  std::fprintf(f, "  \"host_note\": \"single-core hosts time the pooled paths "
               "with no real parallelism; the fused-vs-per-array comparison "
               "is same-thread A/B over identical state and holds "
               "regardless\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
