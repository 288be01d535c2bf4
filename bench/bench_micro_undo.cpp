// Checkpoint/undo microbenchmark: the per-worker write log vs the seed's
// per-element stamp scheme.
//
// Four questions, answered on the real host (not the simulator):
//   1. Undo at a fixed overshoot — a 2^14-iteration strip written inside an
//      array of n elements, half of it overshot (8192 writes to take back),
//      for n = 2^16..2^22.  The log tail walk touches only the overshot
//      writes, so its time must stay flat in n (flag: undo_flat, the same
//      10x rule as clear_flat); the seed's per-element pass scans all n
//      stamps and is reported next to it.  Per point the MIN over reps: on
//      a time-sliced host the minimum approaches the uncontended cost.
//   2. Clear cost — the seed cleared stamps with an O(n) fill per reuse;
//      rewinding the logs must be flat across array sizes 2^14..2^22.
//   3. Checkpoint — a one-member SpecTransaction's fused chunked memcpy,
//      begun without a pool (serial) and with one (pool-parallel), plus the
//      seed's element-assignment loop.
//   4. Hash backup — record throughput and the slot-partitioned parallel
//      undo vs its serial scan.
//   Each pooled leg also reports the pool's stolen shares and parked waits
//   per launch (informational): a pooled leg no faster than serial with
//   ~p-1 stolen shares per launch ran on the caller alone while the
//   helpers were still waking.
//
// Emits BENCH_undo.json (path overridable via argv[1]) in the same schema
// family as BENCH_pd.json, plus a human-readable table.  Two flags:
// undo_flat (undo time at a fixed overshoot does not grow with n) and
// clear_flat (the log rewind is O(1) in n); bench/guard.py gates both.  The
// exit code is nonzero only when a run fails or the file cannot be written.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "wlp/core/sparse_backup.hpp"
#include "wlp/core/speculative.hpp"
#include "wlp/core/txn.hpp"
#include "wlp/core/versioned_array.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/prng.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed's versioning machinery, verbatim in structure: one long stamp
/// per element (-1 = never written), a CAS-max per write, reuse pays an
/// O(n) stamp fill, checkpoint is a whole-vector assignment, and the undo
/// scans every stamp.
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
  long undo_beyond(long trip) {
    long undone = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
      if (stamp[i].load(std::memory_order_relaxed) >= trip) {
        data[i] = backup[i];
        ++undone;
      }
    return undone;
  }
  void clear_stamps() {
    for (auto& s : stamp) s.store(-1, std::memory_order_relaxed);
  }
};

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// The pool's work-distribution counters per launch since its last
/// reset_stats(): shares the caller ran beyond its own, and waits (helper
/// start or caller join) that parked on a futex.
struct PerLaunch {
  double stolen_shares = 0;
  double park_wakeups = 0;
};

PerLaunch per_launch(const wlp::ThreadPool& pool) {
  const wlp::PoolStats s = pool.stats();
  const auto launches =
      static_cast<double>(std::max<std::uint64_t>(1, s.launches));
  return {static_cast<double>(s.stolen_shares) / launches,
          static_cast<double>(s.park_wakeups) / launches};
}

/// The array's checkpoint hooks over the whole array, on this thread.
void checkpoint(wlp::VersionedArray<double>& arr) {
  arr.txn_checkpoint_span(0, arr.txn_checkpoint_begin());
}

constexpr std::size_t kStrip = 1 << 14;  ///< iterations written per rep

struct UndoPoint {
  int log2_n = 0;
  double log_us = 0;
  double seed_scan_us = 0;
  long undone = 0;
};

/// One array size: per rep, (untimed) reset + checkpoint + a strip of
/// writes mid-array, then the timed undo of the strip's upper half — the
/// log tail walk over the whole index range (txn_undo) and the seed's full
/// stamp scan alternating.  Writes go round-robin over four workers' logs,
/// as a cyclic DOALL would issue them.
UndoPoint undo_point(int log2_n, int reps) {
  const auto n = static_cast<std::size_t>(1) << log2_n;
  const std::size_t lo = n / 2;
  const long trip = static_cast<long>(lo + kStrip / 2);
  constexpr unsigned kWorkers = 4;
  UndoPoint pt;
  pt.log2_n = log2_n;

  wlp::VersionedArray<double> arr(std::vector<double>(n, 0.0), kWorkers);
  SeedVersioned seed(n);
  std::vector<double> l_us, s_us;
  long undone = 0, seed_undone = 0;
  const auto log_pass = [&](bool record) {
    arr.clear_log();
    checkpoint(arr);
    for (std::size_t i = lo; i < lo + kStrip; ++i)
      arr.write(static_cast<unsigned>(i % kWorkers), static_cast<long>(i), i,
                1.0);
    const auto t0 = Clock::now();
    undone = arr.txn_undo(trip, 0, n);
    if (record) l_us.push_back(seconds_since(t0) * 1e6);
  };
  const auto seed_pass = [&](bool record) {
    seed.clear_stamps();
    seed.checkpoint();
    for (std::size_t i = lo; i < lo + kStrip; ++i)
      seed.write(static_cast<long>(i), i, 1.0);
    const auto t0 = Clock::now();
    seed_undone = seed.undo_beyond(trip);
    if (record) s_us.push_back(seconds_since(t0) * 1e6);
  };
  for (int r = -1; r < reps; ++r) {  // rep -1 = warmup, not recorded
    // Alternate which pass runs first so slow host drift within a point
    // cancels instead of consistently taxing one side.
    if (r % 2 == 0) {
      log_pass(r >= 0);
      seed_pass(r >= 0);
    } else {
      seed_pass(r >= 0);
      log_pass(r >= 0);
    }
    if (seed_undone != undone) {
      std::fprintf(stderr, "undo mismatch: log %ld vs seed %ld\n", undone,
                   seed_undone);
      std::exit(1);
    }
  }
  pt.undone = undone;
  pt.log_us = min_of(l_us);
  pt.seed_scan_us = min_of(s_us);
  return pt;
}

struct ClearPoint {
  int log2_n = 0;
  double log_us = 0;
  double seed_fill_us = 0;
};

ClearPoint clear_cost(int log2_n) {
  const auto n = static_cast<std::size_t>(1) << log2_n;
  wlp::VersionedArray<double> arr(std::vector<double>(n, 0.0), 1);
  SeedVersioned seed(n);
  // Dirty a little state so the reset is the realistic reuse path.
  checkpoint(arr);
  seed.checkpoint();
  for (std::size_t i = 0; i < 64; ++i) {
    arr.write(0, static_cast<long>(i), i, 1.0);
    seed.write(static_cast<long>(i), i, 1.0);
  }
  // The rewind is ~ns: time a batch of 256 so two Clock::now() calls and a
  // possible cache miss on the object header don't dominate the per-call
  // figure.  The seed's O(n) fill is long enough to time singly.
  constexpr int kClears = 256;
  std::vector<double> l_us, f_us;
  for (int r = 0; r < 9; ++r) {
    auto t0 = Clock::now();
    for (int b = 0; b < kClears; ++b) arr.clear_log();
    l_us.push_back(seconds_since(t0) * 1e6 / kClears);
    t0 = Clock::now();
    seed.clear_stamps();
    f_us.push_back(seconds_since(t0) * 1e6);
  }
  return {log2_n, wlp::median(l_us), wlp::median(f_us)};
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_undo.json";
  constexpr int kReps = 11;

  // ---- 1. undo at a fixed overshoot ----------------------------------------
  std::printf("== undo of %zu overshot writes in an n-element array (us) ==\n",
              kStrip / 2);
  std::vector<UndoPoint> undo;
  for (int log2_n : {16, 18, 20, 22}) {
    undo.push_back(undo_point(log2_n, kReps));
    const UndoPoint& p = undo.back();
    std::printf("  n=2^%-2d  log walk %8.1f  seed stamp scan %9.1f  (%.0fx)  undone=%ld\n",
                p.log2_n, p.log_us, p.seed_scan_us, p.seed_scan_us / p.log_us,
                p.undone);
  }

  // ---- 2. clear cost -------------------------------------------------------
  std::printf("\n== reset for reuse (us; the log rewind must stay flat) ==\n");
  std::vector<ClearPoint> clears;
  for (int log2_n : {14, 16, 18, 20, 22}) {
    clears.push_back(clear_cost(log2_n));
    const ClearPoint& c = clears.back();
    std::printf("  n=2^%-2d  log rewind %8.4f  seed O(n) fill %10.2f\n",
                c.log2_n, c.log_us, c.seed_fill_us);
  }

  // ---- 3. checkpoint -------------------------------------------------------
  std::printf("\n== checkpoint of 2^20 doubles (ms) ==\n");
  constexpr std::size_t kCpN = 1 << 20;
  double cp_serial_ms, cp_pool_ms, cp_seed_ms;
  PerLaunch cp_pool;
  {
    wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());
    wlp::SpecArray<double> arr(std::vector<double>(kCpN, 1.0), 1, false);
    wlp::SpecTarget* targets[] = {&arr};
    wlp::SpecTransaction txn(std::span<wlp::SpecTarget* const>(targets, 1));
    SeedVersioned seed(kCpN);
    txn.begin(nullptr);  // warmup: fault in the pooled buffer
    txn.begin(&pool);
    seed.checkpoint();
    pool.reset_stats();
    std::vector<double> ser, par, sed;
    for (int r = 0; r < kReps; ++r) {
      auto t0 = Clock::now();
      txn.begin(nullptr);
      ser.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      txn.begin(&pool);
      par.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      seed.checkpoint();
      sed.push_back(seconds_since(t0) * 1e3);
    }
    cp_serial_ms = wlp::median(ser);
    cp_pool_ms = wlp::median(par);
    cp_seed_ms = wlp::median(sed);
    cp_pool = per_launch(pool);
  }
  std::printf("  txn begin, no pool     : %8.3f\n", cp_serial_ms);
  std::printf("  txn begin, pooled      : %8.3f  (p=%u; per launch: %.2f "
              "stolen, %.2f parked)\n",
              cp_pool_ms, wlp::ThreadPool::default_concurrency(),
              cp_pool.stolen_shares, cp_pool.park_wakeups);
  std::printf("  seed vector assign     : %8.3f\n", cp_seed_ms);

  // ---- 4. hash backup ------------------------------------------------------
  std::printf("\n== hash backup (2^16 touched locations) ==\n");
  constexpr std::size_t kTouched = 1 << 16;
  double rec_ns, hundo_serial_ms, hundo_pool_ms;
  PerLaunch hundo_pool;
  {
    wlp::ThreadPool pool(wlp::ThreadPool::default_concurrency());
    std::vector<double> data(kTouched * 4, 0.0);
    wlp::HashBackup<double> backup(kTouched * 2);
    wlp::Xoshiro256 rng(7);
    std::vector<std::size_t> keys(kTouched);
    for (auto& k : keys) k = rng.below(data.size());
    pool.reset_stats();
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
    hundo_pool = per_launch(pool);
  }
  std::printf("  record              : %8.1f ns/op\n", rec_ns);
  std::printf("  undo_into, serial   : %8.3f ms\n", hundo_serial_ms);
  std::printf("  undo_into, pooled   : %8.3f ms  (per launch: %.2f stolen, "
              "%.2f parked)\n",
              hundo_pool_ms, hundo_pool.stolen_shares,
              hundo_pool.park_wakeups);

  // ---- machine-checkable flags --------------------------------------------
  // Both rules compare the largest size against the smallest: an O(n) pass
  // grows 64x (undo, 2^16 -> 2^22) or 256x (clear, 2^14 -> 2^22) there.
  const bool undo_flat =
      undo.back().log_us < 10.0 * std::max(0.01, undo.front().log_us);
  const bool clear_flat =
      clears.back().log_us < 10.0 * std::max(0.01, clears.front().log_us);
  std::printf("\nundo_flat=%d  clear_flat=%d\n", undo_flat, clear_flat);

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
  std::fprintf(f, "    \"method\": \"min of %d alternating reps; per pass: untimed reset+checkpoint and a %zu-iteration strip of writes mid-array (round-robin over 4 workers' logs), timed undo of the strip's upper half; log_us is the log tail walk, seed_scan_us the seed's per-element scan over all n stamps; undo_flat requires the 2^22 walk under 10x the 2^16 walk\",\n",
               kReps, kStrip);
  std::fprintf(f, "    \"series\": [\n");
  for (std::size_t i = 0; i < undo.size(); ++i)
    std::fprintf(f,
                 "      {\"log2_n\": %d, \"overshoot\": %zu, \"log_us\": %.2f, "
                 "\"seed_scan_us\": %.2f, \"undone\": %ld}%s\n",
                 undo[i].log2_n, kStrip / 2, undo[i].log_us,
                 undo[i].seed_scan_us, undo[i].undone,
                 i + 1 < undo.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"undo_flat\": %s\n", undo_flat ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"clear\": {\n    \"series\": [\n");
  for (std::size_t i = 0; i < clears.size(); ++i)
    std::fprintf(f,
                 "      {\"log2_n\": %d, \"log_us\": %.4f, "
                 "\"seed_fill_us\": %.3f}%s\n",
                 clears[i].log2_n, clears[i].log_us, clears[i].seed_fill_us,
                 i + 1 < clears.size() ? "," : "");
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"clear_flat\": %s\n", clear_flat ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"checkpoint\": {\"n\": %zu, \"serial_ms\": %.3f, "
               "\"pooled_ms\": %.3f, \"stolen_shares_per_launch\": %.2f, "
               "\"park_wakeups_per_launch\": %.2f, "
               "\"seed_assign_ms\": %.3f},\n",
               kCpN, cp_serial_ms, cp_pool_ms, cp_pool.stolen_shares,
               cp_pool.park_wakeups, cp_seed_ms);
  std::fprintf(f,
               "  \"hash\": {\"touched\": %zu, \"record_ns_per_op\": %.1f, "
               "\"undo_serial_ms\": %.3f, \"undo_pooled_ms\": %.3f, "
               "\"stolen_shares_per_launch\": %.2f, "
               "\"park_wakeups_per_launch\": %.2f},\n",
               kTouched, rec_ns, hundo_serial_ms, hundo_pool_ms,
               hundo_pool.stolen_shares, hundo_pool.park_wakeups);
  std::fprintf(f, "  \"host_note\": \"the log-vs-seed undo and clear "
               "comparisons run on one thread and hold on any host; the "
               "pooled checkpoint and hash undo need more than one core to "
               "show parallelism\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
