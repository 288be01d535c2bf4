// PD shadow microbenchmark: the speculative instrumentation tax, before and
// after privatization.
//
// Four questions, answered on the real host (not the simulator):
//   1. Marking throughput — ns per mark_write into cold cells, shared
//      (atomic loads + striped spinlock) vs privatized (plain stores into
//      the worker's own segment), for p = 1..8 concurrent markers.
//   2. Reset cost — the shared store sweeps O(n) cells; the privatized
//      epoch bump must be flat across array sizes 2^14..2^22.
//   3. Accessor retry cost — 100 short strip retries against one pooled
//      (shadow, accessor) pair: seed-style per-retry reconstruction (an
//      O(n) zero-fill each time) vs the epoch-stamped reset().
//   4. End-to-end — a real speculative WHILE loop (checkpoint + marking +
//      analysis + undo) through the production SpecArray.  The Fig. 8-14
//      reproductions run in the simulator and don't execute this code; this
//      is the measured real-runtime cost of the instrumented loop.
//
// Emits BENCH_pd.json (path overridable via argv[1]) in the same schema
// family as BENCH_forkjoin.json, plus a human-readable table.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "wlp/core/shadow.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Cache-resident shadow: the marking series measures the instrumentation
// tax itself (lock + atomics vs plain stores), not DRAM latency.  A larger
// shadow turns every cold mark into a memory miss for BOTH stores and the
// tax difference drowns; that regime is reported separately below.
constexpr long kHotCells = 1 << 12;
constexpr long kDramCells = 1 << 18;
constexpr int kRoundsPerSample = 32;

/// Per-worker index stream: each worker's slice of [0, n) — distinct cells,
/// scrambled order — the dominant speculative-loop pattern (every element's
/// FIRST mark, the path that takes the shared store's stripe lock).
/// Precomputed so the timed loop is marks only, no index math.
std::vector<std::vector<std::size_t>> index_streams(unsigned p, long n) {
  const long share = n / p;
  std::vector<std::vector<std::size_t>> streams(p);
  for (unsigned vpn = 0; vpn < p; ++vpn) {
    streams[vpn].reserve(static_cast<std::size_t>(share));
    const long base = static_cast<long>(vpn) * share;
    for (long j = 0; j < share; ++j)
      // 7901 is coprime to the power-of-two share: a bijective scramble.
      streams[vpn].push_back(static_cast<std::size_t>(base + (j * 7901) % share));
  }
  return streams;
}

/// One marking sample: `rounds` repetitions of (untimed reset, timed mark
/// of every cell), ascending iterations per worker.  Returns ns per mark
/// over the timed phases only.
template <class Shadow>
double marking_sample(wlp::ThreadPool& pool, Shadow& shadow,
                      const std::vector<std::vector<std::size_t>>& streams,
                      int rounds) {
  double marking_s = 0.0;
  long marks = 0;
  for (int r = 0; r < rounds; ++r) {
    shadow.reset();  // untimed: cells must be cold so marks do real work
    const auto t0 = Clock::now();
    pool.parallel([&](unsigned vpn) {
      // Worker-bound marker, exactly as the accessors hold one: pointers
      // and epoch cached for the whole run.
      auto m = shadow.marker(vpn);
      const std::vector<std::size_t>& idxs = streams[vpn];
      long iter = 0;
      for (const std::size_t idx : idxs) m.mark_write(iter++, idx);
    });
    marking_s += seconds_since(t0);
    for (const auto& s : streams) marks += static_cast<long>(s.size());
  }
  return marking_s * 1e9 / static_cast<double>(marks);
}

struct MarkPoint {
  unsigned p = 0;
  double shared_ns = 0;
  double priv_ns = 0;
};

MarkPoint marking_throughput(unsigned p, long n_cells, int rounds) {
  wlp::ThreadPool pool(p);
  wlp::PDSharedShadow shared(static_cast<std::size_t>(n_cells), p);
  wlp::PDPrivateShadow priv(static_cast<std::size_t>(n_cells), p);
  const auto streams = index_streams(p, n_cells);
  marking_sample(pool, shared, streams, 2);  // warmup (and segment alloc)
  marking_sample(pool, priv, streams, 2);
  std::vector<double> s_ns, p_ns;
  for (int r = 0; r < 7; ++r) {  // interleaved: host noise hits both alike
    s_ns.push_back(marking_sample(pool, shared, streams, rounds));
    p_ns.push_back(marking_sample(pool, priv, streams, rounds));
  }
  return {p, wlp::median(s_ns), wlp::median(p_ns)};
}

struct ResetPoint {
  int log2_n = 0;
  double shared_us = 0;
  double priv_us = 0;
};

ResetPoint reset_cost(int log2_n) {
  const auto n = static_cast<std::size_t>(1) << log2_n;
  wlp::PDSharedShadow shared(n);
  wlp::PDPrivateShadow priv(n, 4);
  // Mark a little so the privatized segments exist (the realistic reuse
  // state: reset() on a shadow that has been through a run).
  for (long i = 0; i < 64; ++i) {
    shared.mark_write(i, static_cast<std::size_t>(i));
    priv.mark_write(static_cast<unsigned>(i % 4), i, static_cast<std::size_t>(i));
  }
  std::vector<double> s_us, p_us;
  for (int r = 0; r < 9; ++r) {
    auto t0 = Clock::now();
    shared.reset();
    s_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    priv.reset();
    p_us.push_back(seconds_since(t0) * 1e6);
  }
  return {log2_n, wlp::median(s_us), wlp::median(p_us)};
}

/// 100 short strip retries.  `rebuild` models the seed: a fresh accessor —
/// and its O(n) zero-filled last-writer table — per retry.  `epoch` is the
/// new path: reset() bumps a generation instead.
double retry_cost_us(bool rebuild, std::size_t n, int retries) {
  wlp::PDPrivateShadow shadow(n, 1);
  wlp::PDPrivateAccessor pooled(shadow, n, 0);
  const auto t0 = Clock::now();
  for (int r = 0; r < retries; ++r) {
    shadow.reset();
    if (rebuild) {
      wlp::PDPrivateAccessor fresh(shadow, n, 0);
      fresh.begin_iteration(r);
      fresh.on_write(static_cast<std::size_t>(r) % n);
      fresh.on_read((static_cast<std::size_t>(r) + 1) % n);
    } else {
      pooled.reset();
      pooled.begin_iteration(r);
      pooled.on_write(static_cast<std::size_t>(r) % n);
      pooled.on_read((static_cast<std::size_t>(r) + 1) % n);
    }
  }
  return seconds_since(t0) * 1e6;
}

/// One full steady-state speculative invocation (checkpoint, instrumented
/// DOALL, PD analysis, undo) of an independent loop against a REUSED
/// SpecArray — the production pattern the epoch reset targets: segments and
/// last-writer tables are pooled, only the per-invocation costs recur.
/// Returns ms.
double speculative_run_ms(wlp::ThreadPool& pool, wlp::SpecArray<double>& arr,
                          long n) {
  wlp::SpecTarget* targets[] = {&arr};
  const long exit_at = n - n / 4;
  const auto t0 = Clock::now();
  const wlp::ExecReport r = wlp::speculative_while(
      pool, n, std::span<wlp::SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        if (i >= exit_at) return wlp::IterAction::kExit;
        const auto idx = static_cast<std::size_t>((i * 7901) % n);
        arr.set(vpn, i, idx, static_cast<double>(i));
        return wlp::IterAction::kContinue;
      },
      [&] { return exit_at; });
  const double ms = seconds_since(t0) * 1e3;
  if (!r.pd_passed || r.reexecuted_sequentially) {
    std::fprintf(stderr, "unexpected speculation failure in bench\n");
    std::exit(1);
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_pd.json";

  std::printf("== PD marking throughput (%ld cache-resident cold cells, ns/mark) ==\n",
              kHotCells);
  std::vector<MarkPoint> marking;
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    marking.push_back(marking_throughput(p, kHotCells, kRoundsPerSample));
    const MarkPoint& m = marking.back();
    std::printf("  p=%u  shared %7.2f  privatized %7.2f  (%.1fx)\n", m.p,
                m.shared_ns, m.priv_ns, m.shared_ns / m.priv_ns);
  }

  // The memory-bound regime: a shadow far larger than cache makes every
  // cold mark a DRAM miss for both stores, so the lock/atomic tax is no
  // longer the whole story.  Reported, not guarded.
  const MarkPoint dram = marking_throughput(4, kDramCells, 1);
  std::printf("  [dram regime, n=%ld] p=4  shared %7.2f  privatized %7.2f  (%.1fx)\n",
              kDramCells, dram.shared_ns, dram.priv_ns,
              dram.shared_ns / dram.priv_ns);

  std::printf("\n== reset cost (us; privatized must stay flat) ==\n");
  std::vector<ResetPoint> resets;
  for (int log2_n : {14, 16, 18, 20, 22}) {
    resets.push_back(reset_cost(log2_n));
    const ResetPoint& r = resets.back();
    std::printf("  n=2^%-2d  shared %10.2f  privatized %8.4f\n", r.log2_n,
                r.shared_us, r.priv_us);
  }

  std::printf("\n== 100 short strip retries (accessor reuse) ==\n");
  const std::size_t retry_n = 1 << 16;
  retry_cost_us(false, retry_n, 100);  // warmup
  const double rebuild_us = retry_cost_us(true, retry_n, 100);
  const double epoch_us = retry_cost_us(false, retry_n, 100);
  std::printf("  rebuild-per-retry (seed) : %10.1f us\n", rebuild_us);
  std::printf("  epoch reset              : %10.1f us  (%.0fx lower)\n",
              epoch_us, rebuild_us / epoch_us);

  std::printf("\n== end-to-end speculative loop (n=65536, steady-state, ms) ==\n");
  const long e2e_n = 1 << 16;
  double e2e_ms, e2e_lo, e2e_hi;
  {
    wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());
    wlp::SpecArray<double> arr(
        std::vector<double>(static_cast<std::size_t>(e2e_n), -1.0),
        pool.size(), /*run_pd_test=*/true);
    // Warmup faults in the pooled state (shadow segments, last-writer
    // tables, backup buffers); the timed reps then measure what a repeat
    // invocation of the same loop site actually costs.
    speculative_run_ms(pool, arr, e2e_n);
    std::vector<double> ms;
    for (int r = 0; r < 15; ++r) ms.push_back(speculative_run_ms(pool, arr, e2e_n));
    e2e_ms = wlp::median(ms);
    e2e_lo = *std::min_element(ms.begin(), ms.end());
    e2e_hi = *std::max_element(ms.begin(), ms.end());
  }
  std::printf("  SpecArray : %8.2f ms  [%.2f .. %.2f]\n", e2e_ms, e2e_lo, e2e_hi);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_pd\",\n");
  std::fprintf(f, "  \"host_hw_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"marking\": {\n");
  std::fprintf(f, "    \"n_cells\": %ld,\n", kHotCells);
  std::fprintf(f, "    \"method\": \"cache-resident shadow; median of 7 interleaved samples of %d cold-cell rounds\",\n",
               kRoundsPerSample);
  std::fprintf(f, "    \"series\": [\n");
  for (std::size_t i = 0; i < marking.size(); ++i)
    std::fprintf(f,
                 "      {\"p\": %u, \"shared_ns_per_mark\": %.3f, "
                 "\"privatized_ns_per_mark\": %.3f, \"privatized_speedup\": %.3f}%s\n",
                 marking[i].p, marking[i].shared_ns, marking[i].priv_ns,
                 marking[i].shared_ns / marking[i].priv_ns,
                 i + 1 < marking.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"dram_regime\": {\"n_cells\": %ld, \"p\": 4, "
               "\"shared_ns_per_mark\": %.3f, \"privatized_ns_per_mark\": %.3f},\n",
               kDramCells, dram.shared_ns, dram.priv_ns);
  std::fprintf(f, "    \"host_note\": \"on a host where workers timeshare "
               "few cores the shared store pays no cross-core lock or "
               "coherence contention, so privatized_speedup is a "
               "contention-free lower bound\"\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"reset\": {\n    \"series\": [\n");
  for (std::size_t i = 0; i < resets.size(); ++i)
    std::fprintf(f,
                 "      {\"log2_n\": %d, \"shared_us\": %.3f, "
                 "\"privatized_us\": %.4f}%s\n",
                 resets[i].log2_n, resets[i].shared_us, resets[i].priv_us,
                 i + 1 < resets.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  // O(1) claim, machine-checkable: the largest array's epoch bump must not
  // cost more than a small multiple of the smallest's.
  std::fprintf(f, "    \"privatized_flat\": %s\n",
               resets.back().priv_us < 10.0 * std::max(0.01, resets.front().priv_us)
                   ? "true"
                   : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"accessor_retry\": {\"retries\": 100, \"n\": %zu, "
               "\"rebuild_us\": %.1f, \"epoch_us\": %.1f, \"speedup\": %.1f},\n",
               retry_n, rebuild_us, epoch_us, rebuild_us / epoch_us);
  std::fprintf(f, "  \"end_to_end\": {\"n\": %ld, \"ms\": %.3f, "
               "\"ms_min\": %.3f, \"ms_max\": %.3f},\n",
               e2e_n, e2e_ms, e2e_lo, e2e_hi);
  std::fprintf(f, "  \"figures_note\": \"Fig. 8-14 reproductions run in the "
               "simulator (wlp::sim) and do not execute the shadow hot path; "
               "end_to_end above is the measured real-runtime cost.\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
