// Checkpoint/undo microbenchmark: the block-batched backup layer vs the
// per-element scheme it replaced.
//
// Four questions, answered on the real host (not the simulator):
//   1. Undo-pass cost — the fused pass (dirty-summary scan + adaptive run
//      restore) vs the per-element reference pass (full-array stamp scan,
//      one element restore per qualifying stamp).  Both passes run on the
//      SAME VersionedArray after identical reset+checkpoint+write flows:
//      comparing two different array objects confounds the measurement with
//      allocation layout and write-back interference (observed up to 30%
//      on shared single-core hosts).  Two regimes:
//        * full_write: every element written, half overshot — the
//          reference's best case, since its full scan does no wasted work;
//          the fused pass must hold parity here;
//        * strip: a 2^14-element strip written inside a large array, half
//          of it overshot — the production pattern (strip/window drivers),
//          where the summary bitmap skips the untouched bulk the reference
//          scans element by element.
//      Per-point aggregate is the MIN over reps: on a time-sliced host the
//      minimum approaches the uncontended cost, while means/medians track
//      neighbor load.
//   2. Clear cost — the seed cleared stamps with an O(n) fill per reuse; the
//      epoch bump must be flat across array sizes 2^14..2^22.
//   3. Checkpoint — chunked memcpy, serial vs pool-parallel, plus the seed's
//      element-assignment loop.
//   4. Hash backup — record throughput and the slot-partitioned parallel
//      undo vs its serial scan.
//
// Emits BENCH_undo.json (path overridable via argv[1]) in the same schema
// family as BENCH_pd.json, plus a human-readable table.  The machine-checked
// flags: fused_never_slower (CI guard: the fused pass must not dip below
// 0.95x of the per-element reference even in the reference's best regime —
// the 5% band is measurement tolerance for identical-work comparisons on a
// shared host), clear_flat (epoch bump is O(1)), and strip_speedup_ge_4x
// (the committed artifact must show the >= 4x batching win in the strip
// regime).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "wlp/core/sparse_backup.hpp"
#include "wlp/core/versioned_array.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/prng.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed's stamp-reset and checkpoint machinery, verbatim in structure:
/// one long stamp per element (-1 = never written), reuse pays an O(n)
/// stamp fill, checkpoint is a whole-vector assignment.  Used by the clear
/// and checkpoint sections; the undo-pass A/B instead runs a per-element
/// pass over the same array, so both passes see identical state.
struct SeedVersioned {
  std::vector<double> data, backup;
  std::vector<std::atomic<long>> stamp;

  explicit SeedVersioned(std::size_t n) : data(n, 0.0), backup(n), stamp(n) {
    clear_stamps();
  }
  void checkpoint() { backup = data; }
  void write(long iter, std::size_t idx, double v) {
    data[idx] = v;
    auto& s = stamp[idx];
    long cur = s.load(std::memory_order_relaxed);
    while (iter > cur &&
           !s.compare_exchange_weak(cur, iter, std::memory_order_acq_rel)) {
    }
  }
  void clear_stamps() {
    for (auto& s : stamp) s.store(-1, std::memory_order_relaxed);
  }
};

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

struct UndoPoint {
  int log2_n = 0;
  double fused_us = 0;
  double per_element_us = 0;
  long undone = 0;
};

/// One regime sample set: per rep and per pass, (untimed) reset +
/// checkpoint + writes, then the timed undo pass — fused and per-element
/// reference alternating on the SAME array.  `lo..hi` is the written range;
/// trip cuts it in half.  Returns the min over `reps` for both passes.
UndoPoint undo_regime(int log2_n, std::size_t lo, std::size_t hi, int reps) {
  const auto n = static_cast<std::size_t>(1) << log2_n;
  const long trip = static_cast<long>(lo + (hi - lo) / 2);
  UndoPoint pt;
  pt.log2_n = log2_n;

  wlp::VersionedArray<double> arr(std::vector<double>(n, 0.0));
  auto w = arr.writer();
  const auto fill = [&] {
    arr.clear_stamps();
    w.rebind();
    arr.checkpoint();
    for (std::size_t i = lo; i < hi; ++i)
      w.write(static_cast<long>(i), i, 1.0);
  };
  std::vector<double> f_us, p_us;
  long undone = 0, ref_undone = 0;
  const auto fused_pass = [&](bool record) {
    fill();
    const auto t0 = Clock::now();
    undone = arr.undo_beyond(trip);
    if (record) f_us.push_back(seconds_since(t0) * 1e6);
  };
  const auto ref_pass = [&](bool record) {
    fill();
    const auto t0 = Clock::now();
    // Per-element reference: one full-array span, every stamp tested —
    // the dirty-block summary ignored.
    ref_undone = arr.restore_span(0, n, arr.index()->threshold(trip));
    if (record) p_us.push_back(seconds_since(t0) * 1e6);
  };
  for (int r = -1; r < reps; ++r) {  // rep -1 = warmup, not recorded
    // Alternate which pass runs first so slow host drift within a point
    // cancels instead of consistently taxing one side.
    if (r % 2 == 0) {
      fused_pass(r >= 0);
      ref_pass(r >= 0);
    } else {
      ref_pass(r >= 0);
      fused_pass(r >= 0);
    }
    pt.undone = undone;
    if (ref_undone != undone) {
      std::fprintf(stderr, "undo mismatch: fused %ld vs reference %ld\n",
                   undone, ref_undone);
      std::exit(1);
    }
  }
  pt.fused_us = min_of(f_us);
  pt.per_element_us = min_of(p_us);
  return pt;
}

struct ClearPoint {
  int log2_n = 0;
  double epoch_us = 0;
  double seed_fill_us = 0;
};

ClearPoint clear_cost(int log2_n) {
  const auto n = static_cast<std::size_t>(1) << log2_n;
  wlp::VersionedArray<double> fused(std::vector<double>(n, 0.0));
  SeedVersioned seed(n);
  // Dirty a little state so the reset is the realistic reuse path.
  fused.checkpoint();
  seed.checkpoint();
  for (std::size_t i = 0; i < 64; ++i) {
    fused.write(static_cast<long>(i), i, 1.0);
    seed.write(static_cast<long>(i), i, 1.0);
  }
  // The epoch bump is ~tens of ns: time a batch of 256 so two Clock::now()
  // calls and a possible cache miss on the object header don't dominate the
  // per-call figure.  The seed's O(n) fill is long enough to time singly.
  constexpr int kBumps = 256;
  std::vector<double> e_us, f_us;
  for (int r = 0; r < 9; ++r) {
    auto t0 = Clock::now();
    for (int b = 0; b < kBumps; ++b) fused.clear_stamps();
    e_us.push_back(seconds_since(t0) * 1e6 / kBumps);
    t0 = Clock::now();
    seed.clear_stamps();
    f_us.push_back(seconds_since(t0) * 1e6);
  }
  return {log2_n, wlp::median(e_us), wlp::median(f_us)};
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_undo.json";
  constexpr int kReps = 11;

  // ---- 1. undo pass: fused vs per-element reference, same array -----------
  std::printf("== undo pass, full_write regime (all n written, n/2 overshot; us) ==\n");
  std::vector<UndoPoint> full;
  for (int log2_n : {16, 18, 20}) {
    const auto n = static_cast<std::size_t>(1) << log2_n;
    full.push_back(undo_regime(log2_n, 0, n, kReps));
    const UndoPoint& p = full.back();
    std::printf("  n=2^%-2d  fused %9.1f  per-element %9.1f  (%.1fx)  undone=%ld\n",
                p.log2_n, p.fused_us, p.per_element_us, p.per_element_us / p.fused_us,
                p.undone);
  }

  std::printf("\n== undo pass, strip regime (2^14-element strip in n, half overshot; us) ==\n");
  std::vector<UndoPoint> strip;
  constexpr std::size_t kStrip = 1 << 14;
  for (int log2_n : {18, 20, 22}) {
    // The strip sits mid-array; the seed still scans all n stamps to find it.
    const auto n = static_cast<std::size_t>(1) << log2_n;
    strip.push_back(undo_regime(log2_n, n / 2, n / 2 + kStrip, kReps));
    const UndoPoint& p = strip.back();
    std::printf("  n=2^%-2d  fused %9.1f  per-element %9.1f  (%.0fx)  undone=%ld\n",
                p.log2_n, p.fused_us, p.per_element_us, p.per_element_us / p.fused_us,
                p.undone);
  }

  // ---- 2. clear cost -------------------------------------------------------
  std::printf("\n== stamp clear (us; epoch bump must stay flat) ==\n");
  std::vector<ClearPoint> clears;
  for (int log2_n : {14, 16, 18, 20, 22}) {
    clears.push_back(clear_cost(log2_n));
    const ClearPoint& c = clears.back();
    std::printf("  n=2^%-2d  epoch bump %8.4f  seed O(n) fill %10.2f\n",
                c.log2_n, c.epoch_us, c.seed_fill_us);
  }

  // ---- 3. checkpoint -------------------------------------------------------
  std::printf("\n== checkpoint of 2^20 doubles (ms) ==\n");
  constexpr std::size_t kCpN = 1 << 20;
  double cp_serial_ms, cp_pool_ms, cp_seed_ms;
  {
    wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());
    wlp::VersionedArray<double> arr(std::vector<double>(kCpN, 1.0));
    SeedVersioned seed(kCpN);
    arr.checkpoint();           // warmup: fault in the pooled buffer
    arr.checkpoint(&pool);
    seed.checkpoint();
    std::vector<double> ser, par, sed;
    for (int r = 0; r < kReps; ++r) {
      auto t0 = Clock::now();
      arr.checkpoint();
      ser.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      arr.checkpoint(&pool);
      par.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      seed.checkpoint();
      sed.push_back(seconds_since(t0) * 1e3);
    }
    cp_serial_ms = wlp::median(ser);
    cp_pool_ms = wlp::median(par);
    cp_seed_ms = wlp::median(sed);
  }
  std::printf("  chunked memcpy, serial : %8.3f\n", cp_serial_ms);
  std::printf("  chunked memcpy, pooled : %8.3f  (p=%u)\n", cp_pool_ms,
              wlp::ThreadPool::default_concurrency());
  std::printf("  seed vector assign     : %8.3f\n", cp_seed_ms);

  // ---- 4. hash backup ------------------------------------------------------
  std::printf("\n== hash backup (2^16 touched locations) ==\n");
  constexpr std::size_t kTouched = 1 << 16;
  double rec_ns, hundo_serial_ms, hundo_pool_ms;
  {
    wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());
    std::vector<double> data(kTouched * 4, 0.0);
    wlp::HashBackup<double> backup(kTouched * 2);
    wlp::Xoshiro256 rng(7);
    std::vector<std::size_t> keys(kTouched);
    for (auto& k : keys) k = rng.below(data.size());
    std::vector<double> rec, hs, hp;
    for (int r = 0; r < kReps; ++r) {
      backup.clear();
      auto t0 = Clock::now();
      long iter = 0;
      for (const std::size_t k : keys) backup.record(iter++, k, data[k]);
      rec.push_back(seconds_since(t0) * 1e9 /
                    static_cast<double>(keys.size()));
      t0 = Clock::now();
      long u = backup.undo_into(data, 0);
      hs.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      u += backup.undo_into(data, 0, &pool);
      hp.push_back(seconds_since(t0) * 1e3);
      if (u <= 0) std::exit(1);
    }
    rec_ns = wlp::median(rec);
    hundo_serial_ms = wlp::median(hs);
    hundo_pool_ms = wlp::median(hp);
  }
  std::printf("  record              : %8.1f ns/op\n", rec_ns);
  std::printf("  undo_into, serial   : %8.3f ms\n", hundo_serial_ms);
  std::printf("  undo_into, pooled   : %8.3f ms\n", hundo_pool_ms);

  // ---- machine-checkable flags --------------------------------------------
  // 5% band: identical-work comparisons on a shared host still jitter a
  // few percent even on min-of-reps.
  const bool fused_never_slower = std::all_of(
      full.begin(), full.end(),
      [](const UndoPoint& p) { return p.fused_us <= 1.05 * p.per_element_us; });
  const bool clear_flat =
      clears.back().epoch_us < 10.0 * std::max(0.01, clears.front().epoch_us);
  const double strip_headline =
      strip.back().per_element_us / std::max(1e-9, strip.back().fused_us);
  const bool strip_ge_4x = strip_headline >= 4.0;
  std::printf("\nfused_never_slower=%d  clear_flat=%d  strip_speedup=%.0fx (ge_4x=%d)\n",
              fused_never_slower, clear_flat, strip_headline, strip_ge_4x);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_undo\",\n");
  std::fprintf(f, "  \"host_hw_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"undo\": {\n");
  std::fprintf(f, "    \"method\": \"min of %d alternating reps on ONE array; per pass: untimed reset+checkpoint+writes, timed undo; per_element is one restore_span over the whole array (full scan over the same packed stamps); fused_never_slower allows a 5%% tolerance band\",\n",
               kReps);
  std::fprintf(f, "    \"full_write\": [\n");
  for (std::size_t i = 0; i < full.size(); ++i)
    std::fprintf(f,
                 "      {\"log2_n\": %d, \"fused_us\": %.2f, "
                 "\"per_element_us\": %.2f, \"speedup\": %.3f, \"undone\": %ld}%s\n",
                 full[i].log2_n, full[i].fused_us, full[i].per_element_us,
                 full[i].per_element_us / full[i].fused_us, full[i].undone,
                 i + 1 < full.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"strip\": [\n");
  for (std::size_t i = 0; i < strip.size(); ++i)
    std::fprintf(f,
                 "      {\"log2_n\": %d, \"strip_elems\": %zu, \"fused_us\": %.2f, "
                 "\"per_element_us\": %.2f, \"speedup\": %.3f, \"undone\": %ld}%s\n",
                 strip[i].log2_n, kStrip, strip[i].fused_us,
                 strip[i].per_element_us,
                 strip[i].per_element_us / strip[i].fused_us, strip[i].undone,
                 i + 1 < strip.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"fused_never_slower\": %s,\n",
               fused_never_slower ? "true" : "false");
  std::fprintf(f, "    \"strip_headline_speedup\": %.1f,\n", strip_headline);
  std::fprintf(f, "    \"strip_speedup_ge_4x\": %s\n",
               strip_ge_4x ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"clear\": {\n    \"series\": [\n");
  for (std::size_t i = 0; i < clears.size(); ++i)
    std::fprintf(f,
                 "      {\"log2_n\": %d, \"epoch_us\": %.4f, "
                 "\"seed_fill_us\": %.3f}%s\n",
                 clears[i].log2_n, clears[i].epoch_us, clears[i].seed_fill_us,
                 i + 1 < clears.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"epoch_flat\": %s\n", clear_flat ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"checkpoint\": {\"n\": %zu, \"serial_ms\": %.3f, "
               "\"pooled_ms\": %.3f, \"seed_assign_ms\": %.3f},\n",
               kCpN, cp_serial_ms, cp_pool_ms, cp_seed_ms);
  std::fprintf(f,
               "  \"hash\": {\"touched\": %zu, \"record_ns_per_op\": %.1f, "
               "\"undo_serial_ms\": %.3f, \"undo_pooled_ms\": %.3f},\n",
               kTouched, rec_ns, hundo_serial_ms, hundo_pool_ms);
  std::fprintf(f, "  \"host_note\": \"single-core hosts time the pooled paths "
               "with no real parallelism; the fused-vs-per-element and "
               "epoch-vs-fill comparisons are same-thread A/B and hold "
               "regardless\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return !fused_never_slower || !clear_flat;
}
