// Observability overhead microbenchmark.
//
// The contract the obs subsystem makes: with tracing disabled at run time,
// an instrumented fork-join launch pays only the hooks' enabled checks, and
// with tracing enabled each recorded event stays in the tens-of-nanoseconds
// range.  The hooks are always compiled in, so there is no uninstrumented
// binary to compare against: the disabled launch is measured against the
// enabled one, batch by batch in one process.
//
// Measurements (real host, plain chrono):
//   1. empty `parallel(f)` launch latency with tracing disabled vs enabled,
//      interleaved batch by batch;
//   2. per-event cost of the hook vocabulary: instant, scoped span, metrics
//      counter, metrics histogram — and the raw ring emit the hooks sit on.
//
// Emits BENCH_obs.json (path overridable via argv[1]).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/json.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double batch_launch_ns(wlp::ThreadPool& pool, int iters) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) pool.parallel([](unsigned) {});
  return seconds_since(t0) * 1e9 / iters;
}

/// ns per call of `f()` repeated `n` times (median of `batches` batches).
template <class F>
double per_op_ns(int batches, long n, F&& f) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (long i = 0; i < n; ++i) f(i);
    xs.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return wlp::median(xs);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  const unsigned p = wlp::ThreadPool::default_concurrency();
  wlp::obs::Tracer& tracer = wlp::obs::Tracer::instance();

  std::printf("== obs overhead (pool size %u) ==\n", p);

  // -- 1. launch latency: tracing disabled vs enabled ----------------------
  wlp::ThreadPool pool(p);
  tracer.set_enabled(false);
  batch_launch_ns(pool, 4000);  // warmup
  double disabled_ns = 0, enabled_ns = 0;
  {
    // Interleave the two configurations batch by batch so host noise hits
    // both alike (same technique as bench_micro_forkjoin), and take the
    // *minimum* batch: launch latency is a floor measurement, and the floor
    // is far more stable than the median when background load perturbs a
    // subset of batches.
    std::vector<double> off_batches, on_batches;
    for (int b = 0; b < 25; ++b) {
      tracer.set_enabled(false);
      off_batches.push_back(batch_launch_ns(pool, 2000));
      tracer.set_enabled(true);
      on_batches.push_back(batch_launch_ns(pool, 2000));
      tracer.clear();  // keep ring wraparound out of the timing
    }
    tracer.set_enabled(false);
    disabled_ns = *std::min_element(off_batches.begin(), off_batches.end());
    enabled_ns = *std::min_element(on_batches.begin(), on_batches.end());
  }
  std::printf("  launch, tracing disabled : %10.1f ns\n", disabled_ns);
  std::printf("  launch, tracing enabled  : %10.1f ns\n", enabled_ns);

  // -- 2. per-event costs --------------------------------------------------
  const long n_events = 1 << 18;
  const int batches = 9;

  tracer.set_enabled(true);
  const double instant_ns = per_op_ns(batches, n_events, []([[maybe_unused]] long i) {
    WLP_TRACE_INSTANT("bench.instant", i, 0);
  });
  tracer.clear();
  const double scope_ns = per_op_ns(batches, n_events, []([[maybe_unused]] long i) {
    WLP_TRACE_SCOPE("bench.scope", i, 0);
  });
  tracer.clear();
  const double ring_ns = per_op_ns(batches, n_events, [&]([[maybe_unused]] long i) {
    tracer.ring().emit({"bench.raw", wlp::obs::ticks(), 0,
                        static_cast<std::uint64_t>(i), 0, 'i'});
  });
  tracer.clear();
  tracer.set_enabled(false);
  const double instant_off_ns = per_op_ns(batches, n_events, []([[maybe_unused]] long i) {
    WLP_TRACE_INSTANT("bench.instant", i, 0);
  });

  const double count_ns = per_op_ns(batches, n_events, []([[maybe_unused]] long i) {
    WLP_OBS_COUNT("wlp.bench.count", static_cast<std::uint64_t>(i) & 1);
  });
  const double hist_ns = per_op_ns(batches, n_events, []([[maybe_unused]] long i) {
    WLP_OBS_HIST("wlp.bench.hist", i);
  });

  std::printf("\n  per-event cost (median over %d batches of %ld):\n", batches,
              n_events);
  std::printf("    trace instant (enabled)  : %7.2f ns\n", instant_ns);
  std::printf("    trace scope   (enabled)  : %7.2f ns\n", scope_ns);
  std::printf("    raw ring emit            : %7.2f ns\n", ring_ns);
  std::printf("    trace instant (disabled) : %7.2f ns\n", instant_off_ns);
  std::printf("    metrics counter add      : %7.2f ns\n", count_ns);
  std::printf("    metrics histogram record : %7.2f ns\n", hist_ns);

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  wlp::JsonWriter w(os);
  w.begin_object();
  w.kv("bench", "micro_obs");
  w.kv("host_hw_concurrency", std::thread::hardware_concurrency());
  w.kv("pool_size", p);
  w.key("launch").begin_object();
  w.kv("method", "min of 25 interleaved batches, empty job");
  w.kv("tracing_disabled_ns", disabled_ns);
  w.kv("tracing_enabled_ns", enabled_ns);
  w.end_object();
  w.key("per_event_ns").begin_object();
  w.kv("trace_instant_enabled", instant_ns);
  w.kv("trace_scope_enabled", scope_ns);
  w.kv("ring_emit_raw", ring_ns);
  w.kv("trace_instant_disabled", instant_off_ns);
  w.kv("metrics_counter_add", count_ns);
  w.kv("metrics_histogram_record", hist_ns);
  w.end_object();
  w.end_object();
  os << '\n';
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
