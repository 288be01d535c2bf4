// Transaction-aware sliding-window microbench (Section 8.2 + DESIGN.md §10).
//
// One question, answered on the real host: controller overhead — the same
// trivial windowed loop with no budget vs with a budget + live-bytes poll
// (EWMA fold + cap re-derivation under the issue lock at every claim).
// Paired per-rep ratio, median over alternating reps; bench/guard.py bounds
// it (the claim lock dominates both sides, the controller must stay noise).
// The budget itself is pinned by the WindowBudget tests.
//
// Emits BENCH_window.json (path overridable via argv[1]); exits nonzero only
// when a run ends early or the file cannot be written.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "wlp/core/sliding_window.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

struct OverheadOutcome {
  double unbudgeted_us = 0;
  double budgeted_us = 0;
  double ratio = 0;  ///< median of per-rep paired budgeted/unbudgeted
};

/// Same trivial windowed loop with and without the controller active; the
/// delta is the per-claim EWMA fold + cap re-derivation + live-bytes poll.
OverheadOutcome controller_overhead(wlp::ThreadPool& pool, int reps) {
  const long u = 20000;
  std::atomic<std::size_t> live{0};
  const auto run = [&](bool budgeted) {
    wlp::WindowOptions opts;
    opts.window = 64;
    if (budgeted) {
      opts.memory_budget = 1u << 30;
      opts.live_bytes = [&] { return live.load(std::memory_order_relaxed); };
    }
    const auto t0 = Clock::now();
    const wlp::WindowReport wr = wlp::sliding_window_while(
        pool, u,
        [&](long, unsigned) {
          live.fetch_add(8, std::memory_order_relaxed);
          return wlp::IterAction::kContinue;
        },
        opts);
    const double us = seconds_since(t0) * 1e6;
    if (wr.exec.trip != u) std::exit(1);
    live.store(0, std::memory_order_relaxed);
    return us;
  };
  std::vector<double> base_us, ctl_us, ratios;
  for (int r = -1; r < reps; ++r) {  // rep -1 = warmup, not recorded
    double b, c;
    if (r % 2 == 0) {
      c = run(true);
      b = run(false);
    } else {
      b = run(false);
      c = run(true);
    }
    if (r < 0) continue;
    base_us.push_back(b);
    ctl_us.push_back(c);
    ratios.push_back(c / b);
  }
  OverheadOutcome out;
  out.unbudgeted_us = min_of(base_us);
  out.budgeted_us = min_of(ctl_us);
  out.ratio = wlp::median(ratios);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_window.json";
  constexpr int kReps = 31;

  wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());
  std::printf("== controller overhead on a trivial %d-rep windowed loop ==\n",
              kReps);
  const OverheadOutcome ovh = controller_overhead(pool, kReps);
  std::printf("  unbudgeted %8.1f us   budgeted %8.1f us   (median %.3fx)\n",
              ovh.unbudgeted_us, ovh.budgeted_us, ovh.ratio);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_window\",\n");
  std::fprintf(f, "  \"host_hw_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"overhead\": {\n");
  std::fprintf(f, "    \"method\": \"%d alternating reps of a trivial 20000-iteration windowed loop, no budget vs 1 GiB budget + relaxed-atomic live-bytes poll (per-claim EWMA fold + cap re-derivation under the issue lock); ratio is the MEDIAN of per-rep paired budgeted/unbudgeted times (pairing cancels host drift)\",\n",
               kReps);
  std::fprintf(f,
               "    \"unbudgeted_us\": %.1f, \"budgeted_us\": %.1f, "
               "\"ratio\": %.3f\n",
               ovh.unbudgeted_us, ovh.budgeted_us, ovh.ratio);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"host_note\": \"the overhead ratio is host-sensitive "
               "and is paired same-run A/B\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
