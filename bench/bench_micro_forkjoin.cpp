// Fork-join substrate microbenchmark.
//
// Two questions, answered on the real host (not the simulator):
//   1. What does one `parallel(f)` launch cost?  Measured against an
//      embedded copy of the seed mutex/condvar pool (`baseline::CondvarPool`
//      below is the pre-rewrite ThreadPool verbatim), because the launch
//      cost is exactly the overhead every strip, window slide and prefix
//      pass of the paper's methods pays.
//   2. How do the DOALL schedules compare when the per-iteration grain is
//      tiny — the regime where claim traffic on the shared counter is the
//      bottleneck that guided self-scheduling and the default self-sized
//      kDynamic blocks (`DoallOptions{}`) exist to remove?
//
// Emits BENCH_forkjoin.json (path overridable via argv[1]) so the perf
// trajectory is recorded in-repo, plus a human-readable table.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "wlp/sched/doall.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/support/stats.hpp"

namespace baseline {

// The seed ThreadPool (mutex/condvar start + finish, std::function job
// slot), kept verbatim as the comparison point for the launch benchmark.
class CondvarPool {
 public:
  explicit CondvarPool(unsigned n) {
    threads_.reserve(n);
    for (unsigned vpn = 0; vpn < n; ++vpn)
      threads_.emplace_back([this, vpn] { worker_main(vpn); });
  }

  ~CondvarPool() {
    {
      std::lock_guard lock(mu_);
      shutdown_ = true;
    }
    cv_start_.notify_all();
    for (auto& t : threads_) t.join();
  }

  unsigned size() const noexcept { return static_cast<unsigned>(threads_.size()); }

  void parallel(const std::function<void(unsigned)>& f) {
    std::unique_lock lock(mu_);
    job_ = &f;
    remaining_ = size();
    first_error_ = nullptr;
    ++generation_;
    cv_start_.notify_all();
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

 private:
  void worker_main(unsigned vpn) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* job = nullptr;
      {
        std::unique_lock lock(mu_);
        cv_start_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        job = job_;
      }
      std::exception_ptr err;
      try {
        (*job)(vpn);
      } catch (...) {
        err = std::current_exception();
      }
      {
        std::lock_guard lock(mu_);
        if (err && !first_error_) first_error_ = err;
        if (--remaining_ == 0) cv_done_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace baseline

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mean ns per launch of an empty job over one batch.  Callers interleave
/// batches of the two pools and take the median, so slow-host noise (timer
/// migration, background reclaim) hits both pools alike instead of whichever
/// happened to run second.
template <class Pool>
double batch_launch_ns(Pool& pool, int iters) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) pool.parallel([](unsigned) {});
  return seconds_since(t0) * 1e9 / iters;
}

/// A few nanoseconds of genuine per-iteration work the optimizer cannot
/// elide: advance a per-call xorshift state and fold it into a sink.
inline std::uint64_t tiny_work(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

struct SweepPoint {
  std::string label;
  double ms = 0;     ///< median wall time for the whole DOALL
  long claims = 0;   ///< scheduler grabs observed
};

SweepPoint sweep_schedule(wlp::ThreadPool& pool, const char* label,
                          wlp::Sched sched, long chunk, long n, int reps) {
  wlp::DoallOptions opts;
  opts.sched = sched;
  opts.chunk = chunk;
  std::vector<std::uint64_t> sink(pool.size() * 8, 0);
  SweepPoint pt;
  pt.label = label;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const wlp::QuitResult qr = wlp::doall_quit(
        pool, 0, n,
        [&](long i, unsigned vpn) {
          sink[vpn * 8] += tiny_work(static_cast<std::uint64_t>(i) + 0x9e3779b9u);
          return wlp::IterAction::kContinue;
        },
        opts);
    times.push_back(seconds_since(t0) * 1e3);
    pt.claims = qr.claims;
  }
  pt.ms = wlp::median(times);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_forkjoin.json";
  const unsigned p = wlp::ThreadPool::default_concurrency();

  std::printf("== fork-join launch latency (pool size %u, empty job) ==\n", p);
  double seed_ns, new_ns, inline_ns;
  wlp::PoolStats launch_stats;
  {
    baseline::CondvarPool seed(p);
    wlp::ThreadPool pool(p);
    batch_launch_ns(seed, 400);    // warmup
    batch_launch_ns(pool, 4000);
    pool.reset_stats();
    std::vector<double> seed_batches, new_batches;
    for (int b = 0; b < 15; ++b) {
      seed_batches.push_back(batch_launch_ns(seed, 400));
      new_batches.push_back(batch_launch_ns(pool, 4000));
    }
    seed_ns = wlp::median(seed_batches);
    new_ns = wlp::median(new_batches);
    launch_stats = pool.stats();
  }
  {
    wlp::ThreadPool solo(1);  // p = 1 runs fully inline: the floor
    batch_launch_ns(solo, 20000);  // warmup
    inline_ns = batch_launch_ns(solo, 200000);
  }
  const double speedup = seed_ns / new_ns;
  std::printf("  seed mutex/condvar pool  : %10.0f ns/launch\n", seed_ns);
  std::printf("  share-stealing substrate : %10.0f ns/launch  (%.1fx lower)\n",
              new_ns, speedup);
  std::printf("  p=1 inline               : %10.1f ns/launch\n", inline_ns);
  std::printf("  substrate: %llu spin + %llu park wakeups, %llu shares stolen by caller\n",
              static_cast<unsigned long long>(launch_stats.spin_wakeups),
              static_cast<unsigned long long>(launch_stats.park_wakeups),
              static_cast<unsigned long long>(launch_stats.stolen_shares));

  std::printf("\n== small-grain DOALL sweep (n iterations of ~3ns body) ==\n");
  wlp::ThreadPool pool(p);
  const long n = 1 << 16;
  const int reps = 9;
  std::vector<SweepPoint> sweep;
  sweep.push_back(sweep_schedule(pool, "dynamic_chunk1", wlp::Sched::kDynamic, 1, n, reps));
  // kDynamic with chunk 0 is DoallOptions{}: blocks sized from measured time.
  sweep.push_back(sweep_schedule(pool, "dynamic_auto", wlp::Sched::kDynamic, 0, n, reps));
  sweep.push_back(sweep_schedule(pool, "dynamic_chunk64", wlp::Sched::kDynamic, 64, n, reps));
  sweep.push_back(sweep_schedule(pool, "guided", wlp::Sched::kGuided, 1, n, reps));
  sweep.push_back(sweep_schedule(pool, "static_cyclic", wlp::Sched::kStaticCyclic, 1, n, reps));
  sweep.push_back(sweep_schedule(pool, "static_block", wlp::Sched::kStaticBlock, 1, n, reps));
  for (const SweepPoint& pt : sweep)
    std::printf("  %-16s %8.3f ms   %8ld claims\n", pt.label.c_str(), pt.ms,
                pt.claims);

  double dyn1_ms = 0, auto_ms = 0, guided_ms = 0;
  for (const SweepPoint& pt : sweep) {
    if (pt.label == "dynamic_chunk1") dyn1_ms = pt.ms;
    if (pt.label == "dynamic_auto") auto_ms = pt.ms;
    if (pt.label == "guided") guided_ms = pt.ms;
  }
  std::printf("  guided vs dynamic{chunk=1}: %.2fx faster\n", dyn1_ms / guided_ms);
  std::printf("  DoallOptions{} vs dynamic{chunk=1}: %.2fx faster\n", dyn1_ms / auto_ms);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_forkjoin\",\n");
  std::fprintf(f, "  \"host_hw_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"pool_size\": %u,\n", p);
  std::fprintf(f, "  \"launch\": {\n");
  std::fprintf(f, "    \"method\": \"median of 15 interleaved batches\",\n");
  std::fprintf(f, "    \"seed_condvar_ns\": %.1f,\n", seed_ns);
  std::fprintf(f, "    \"substrate_ns\": %.1f,\n", new_ns);
  std::fprintf(f, "    \"substrate_speedup\": %.2f,\n", speedup);
  std::fprintf(f, "    \"inline_p1_ns\": %.2f,\n", inline_ns);
  std::fprintf(f, "    \"spin_wakeups\": %llu,\n",
               static_cast<unsigned long long>(launch_stats.spin_wakeups));
  std::fprintf(f, "    \"park_wakeups\": %llu,\n",
               static_cast<unsigned long long>(launch_stats.park_wakeups));
  std::fprintf(f, "    \"stolen_shares\": %llu\n",
               static_cast<unsigned long long>(launch_stats.stolen_shares));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"doall_sweep\": { \"n\": %ld, \"series\": [\n", n);
  for (std::size_t i = 0; i < sweep.size(); ++i)
    std::fprintf(f, "    {\"sched\": \"%s\", \"ms\": %.4f, \"claims\": %ld}%s\n",
                 sweep[i].label.c_str(), sweep[i].ms, sweep[i].claims,
                 i + 1 < sweep.size() ? "," : "");
  std::fprintf(f, "  ] },\n");
  std::fprintf(f, "  \"guided_over_dynamic_chunk1\": %.3f,\n",
               dyn1_ms / guided_ms);
  std::fprintf(f, "  \"auto_over_dynamic_chunk1\": %.3f\n", dyn1_ms / auto_ms);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
