// Tracing a speculative run — the wlp::obs subsystem end to end.
//
// Enables the tracer, executes one speculative WHILE loop whose parallel
// execution overshoots the real exit (so the undo machinery fires), then
// exports everything as Chrome trace-event JSON.  Load the file in
// chrome://tracing or https://ui.perfetto.dev to see the timeline: the
// fork-join launches, every scheduler claim, the PD analysis and the undo
// span with its write count, one track per worker thread.
//
// Also dumps the metrics registry snapshot next to the trace, so the
// counters (wlp.spec.rounds, wlp.spec.pd_pass, wlp.doall.claims, ...) can
// be checked against the timeline.
//
// Build & run:  ./example_trace_viewer [trace.json] [metrics.json]
#include <cstdio>
#include <fstream>
#include <numeric>
#include <vector>

#include "wlp/core/speculative.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/support/prng.hpp"

int main(int argc, char** argv) {
  const char* trace_path = argc > 1 ? argv[1] : "wlp_trace.json";
  const char* metrics_path = argc > 2 ? argv[2] : "wlp_metrics.json";

  wlp::obs::Tracer& tracer = wlp::obs::Tracer::instance();
  tracer.set_enabled(true);

  wlp::ThreadPool pool;
  const long n = 4000, exit_at = 3000;

  // A permutation subscript: independent accesses, so the PD test passes
  // and the overshoot past `exit_at` is undone via the time-stamps — which
  // is exactly the undo span we want on the timeline.
  std::vector<std::int32_t> sub(static_cast<std::size_t>(n));
  std::iota(sub.begin(), sub.end(), 0);
  wlp::Xoshiro256 rng(5);
  for (std::size_t k = sub.size(); k > 1; --k)
    std::swap(sub[k - 1], sub[static_cast<std::size_t>(rng.below(k))]);

  wlp::SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                             pool.size(), /*run_pd_test=*/true);
  wlp::SpecTarget* targets[] = {&arr};

  const wlp::ExecReport r = wlp::speculative_while(
      pool, n, std::span<wlp::SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        // RV terminator: every iteration writes *before* the exit test, so
        // the exit-discovering iteration dirties the array and the undo span
        // in the trace carries a real write count.
        const auto slot = static_cast<std::size_t>(sub[static_cast<std::size_t>(i)]);
        arr.set(vpn, i, slot, arr.get(vpn, slot) + i * 0.5);
        return i >= exit_at ? wlp::IterAction::kExit : wlp::IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < exit_at; ++i)
          arr.data()[static_cast<std::size_t>(sub[static_cast<std::size_t>(i)])] +=
              i * 0.5;
        return exit_at;
      });

  tracer.set_enabled(false);
  std::printf("speculation: trip=%ld started=%ld overshot=%ld undone=%ld pd=%s\n",
              r.trip, r.started, r.overshot, r.undone_writes,
              r.pd_passed ? "passed" : "failed");
  std::printf("trace: %llu events buffered, %llu dropped\n",
              static_cast<unsigned long long>(tracer.emitted()),
              static_cast<unsigned long long>(tracer.dropped()));

  if (!tracer.write_chrome(trace_path)) {
    std::fprintf(stderr, "cannot open %s\n", trace_path);
    return 1;
  }
  std::printf("wrote %s  (open in chrome://tracing or ui.perfetto.dev)\n",
              trace_path);

  std::ofstream ms(metrics_path);
  if (!ms) {
    std::fprintf(stderr, "cannot open %s\n", metrics_path);
    return 1;
  }
  wlp::obs::Registry::instance().write_json(ms);
  std::printf("wrote %s\n", metrics_path);
  return 0;
}
