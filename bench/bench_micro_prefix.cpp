// Microbenchmark: parallel prefix evaluation of associative recurrences
// (Section 3.2) vs direct sequential evaluation, across problem sizes.
// On a single-core host the parallel version shows its overhead rather than
// a speedup; the complexity shape O(n/p + log p) is validated structurally
// by the tests and the simulator.
//
// Three series, each timed as the median of 9 samples of ns per element
// (a sample repeats the evaluation until ~2^22 elements were processed):
//   * sequential — the LCG recurrence x = a*x + c, one element at a time;
//   * prefix — affine_recurrence_terms on a 4-worker pool;
//   * scan — parallel_inclusive_scan (sum) on a 4-worker pool, including
//     the copy of the input it scans in place.
//
// Emits BENCH_prefix.json (path overridable via argv[1]) plus a table.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "wlp/sched/parallel_prefix.hpp"
#include "wlp/support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMul = 6364136223846793005ULL;
constexpr std::uint64_t kAdd = 1442695040888963407ULL;

/// Keep `v` observable so the timed loop cannot be folded away.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Median over 9 samples of ns per element; `run(n)` evaluates once.
template <class Run>
double ns_per_element(long n, Run&& run) {
  const long batch = std::max(1L, (1L << 22) / n);
  run(n);  // warmup
  std::vector<double> ns;
  for (int s = 0; s < 9; ++s) {
    const auto t0 = Clock::now();
    for (long b = 0; b < batch; ++b) run(n);
    const double dt = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ns.push_back(dt / static_cast<double>(batch * n));
  }
  return wlp::median(ns);
}

struct Point {
  const char* series;
  long n;
  double ns;
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_prefix.json";
  wlp::ThreadPool pool(4);
  std::vector<Point> points;

  for (long n : {1L << 10, 1L << 14, 1L << 18})
    points.push_back({"sequential", n, ns_per_element(n, [](long m) {
                        std::uint64_t x = 7;
                        for (long i = 0; i < m; ++i) {
                          x = kMul * x + kAdd;
                          keep(x);
                        }
                      })});
  for (long n : {1L << 10, 1L << 14, 1L << 18})
    points.push_back({"prefix", n, ns_per_element(n, [&](long m) {
                        auto terms = wlp::affine_recurrence_terms<std::uint64_t>(
                            pool, 7, kMul, kAdd, m);
                        keep(terms.data());
                      })});
  for (long n : {1L << 12, 1L << 16, 1L << 20}) {
    const std::vector<long> base(static_cast<std::size_t>(n), 1);
    points.push_back({"scan", n, ns_per_element(n, [&](long) {
                        std::vector<long> xs = base;
                        wlp::parallel_inclusive_scan(
                            pool, std::span<long>(xs), 0L,
                            [](long a, long b) { return a + b; });
                        keep(xs.data());
                      })});
  }

  std::printf("== recurrence evaluation (ns/element, p=4 for prefix/scan) ==\n");
  for (const Point& p : points)
    std::printf("  %-10s  n=%-8ld  %8.3f\n", p.series, p.n, p.ns);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_prefix\",\n  \"series\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i)
    std::fprintf(f, "    {\"series\": \"%s\", \"n\": %ld, \"ns_per_element\": %.4f}%s\n",
                 points[i].series, points[i].n, points[i].ns,
                 i + 1 < points.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
