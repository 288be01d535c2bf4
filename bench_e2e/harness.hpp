// Measurement logic of the end-to-end benchmark that does not touch the
// runtime: sample statistics, the span log of a traced run, and the output
// checker.  selftest.cpp pins each piece against hand-computed values.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// q-quantile, linearly interpolated between the closest ranks (the
/// "inclusive" definition: quantile(xs, 0) is the minimum, 1 the maximum).
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// Median over rounds of num[r] / den[r].  Both samples of each ratio come
/// from the same round, so a drift of the host between rounds cancels.
inline double paired_median(const std::vector<double>& num,
                            const std::vector<double>& den) {
  std::vector<double> ratios;
  const std::size_t n = std::min(num.size(), den.size());
  ratios.reserve(n);
  for (std::size_t r = 0; r < n; ++r) ratios.push_back(num[r] / den[r]);
  return quantile(std::move(ratios), 0.5);
}

/// Number of samples strictly above `v`.
inline std::size_t count_above(const std::vector<double>& xs, double v) {
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [v](double x) { return x > v; }));
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call the benchmark makes into a layer (or a grouping of such
/// calls, like a round).
struct Span {
  const char* name = "";
  int parent = -1;  ///< index of the enclosing span in the log; -1 = root
  int round = -1;   ///< shared by every span of one round; -1 = set-up
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;

  double ms() const { return static_cast<double>(t1_ns - t0_ns) * 1e-6; }
};

/// Spans kept in memory for the whole run and written out at exit.
class SpanLog {
 public:
  int open(const char* name, int parent, int round) {
    spans_.push_back({name, parent, round, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].t1_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.  Overlapping children count once, and a child
/// reaching outside its parent counts only inside it.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0_ns, s.t1_ns);

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].t0_ns, hi = spans[i].t1_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[i] = (hi - lo) - covered;
  }
  return out;
}

/// Empty when `got` is byte-identical to `want`; otherwise names the first
/// differing element, or the length mismatch.
inline std::string diff_array(const char* what, const std::vector<double>& got,
                              const std::vector<double>& want) {
  if (got.size() != want.size())
    return std::string(what) + " has " + std::to_string(got.size()) +
           " elements, want " + std::to_string(want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
      return std::string(what) + "[" + std::to_string(i) + "] differs";
  return {};
}

/// Empty when the trip counts agree.
inline std::string diff_trip(long got, long want) {
  if (got == want) return {};
  return "trip " + std::to_string(got) + " != " + std::to_string(want);
}

}  // namespace e2e
