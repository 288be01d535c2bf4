// Tests of the benchmark's own logic: the statistics it reports, the span
// self time it derives per-layer metrics from, and the checker it trusts to
// reject a wrong execution.  Runs with no arguments; exits nonzero on the
// first failed expectation.
//
//   cmake --build .bench_build/e2e --target wlp_e2e_selftest
//   .bench_build/e2e/wlp_e2e_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "loops.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/workloads/track.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_quantile() {
  // Inclusive linear interpolation: position q * (n - 1) in sorted order.
  const std::vector<double> xs{5, 1, 4, 2, 3};
  expect(near(e2e::quantile(xs, 0.5), 3), "median of 1..5 is 3");
  expect(near(e2e::quantile(xs, 0.0), 1), "q=0 is the minimum");
  expect(near(e2e::quantile(xs, 1.0), 5), "q=1 is the maximum");
  expect(near(e2e::quantile(xs, 0.9), 4.6), "p90 of 1..5 interpolates to 4.6");
  expect(near(e2e::quantile({1, 2, 3, 4}, 0.5), 2.5), "even-length median averages");
  expect(near(e2e::quantile({7}, 0.9), 7), "single sample");
  expect(e2e::quantile({}, 0.5) == 0, "empty sample");

  std::vector<double> hundred;
  for (int i = 1; i <= 110; ++i) hundred.push_back(i);
  const double p90 = e2e::quantile(hundred, 0.9);
  expect(e2e::count_above(hundred, p90) >= 10, "110 samples leave >= 10 beyond the p90");
}

void test_paired_median() {
  // Round 2 is slow on both sides (host drift): pairing keeps its ratio 2,
  // while the ratio of the two medians would read 3 / 1.25 = 2.4.
  const std::vector<double> seq{2, 2, 30, 4, 3};
  const std::vector<double> par{1, 1, 15, 2, 1.25};
  expect(near(e2e::paired_median(seq, par), 2), "paired median of per-round ratios");
  expect(near(e2e::paired_median({6, 9}, {3, 3}), 2.5), "even count averages ratios");
}

void test_self_time() {
  // round [0,100) holds a [10,30), b [25,50) (overlapping a) and c [90,120)
  // (reaching past the round); b holds d [30,40).
  std::vector<e2e::Span> s{
      {"round", -1, 0, 0, 100}, {"a", 0, 0, 10, 30}, {"b", 0, 0, 25, 50},
      {"c", 0, 0, 90, 120},     {"d", 2, 0, 30, 40},
  };
  const std::vector<std::int64_t> self = e2e::self_times(s);
  expect(self[0] == 100 - 40 - 10, "union of children [10,50) and [90,100) covers 50");
  expect(self[1] == 20, "leaf a keeps its duration");
  expect(self[2] == 15, "b minus its child d");
  expect(self[3] == 30, "c keeps its duration");
  expect(self[4] == 10, "leaf d keeps its duration");

  e2e::SpanLog log;
  const int r = log.open("round", -1, 3);
  const int k = log.open("seq", r, 3);
  log.close(k);
  log.close(r);
  expect(log.spans()[1].parent == r && log.spans()[1].round == 3, "child keeps parent and round");
  expect(log.spans()[0].t1_ns >= log.spans()[1].t1_ns, "parent closes after child");
  expect(e2e::self_times(log.spans())[0] >= 0, "self time is never negative");
}

void test_checker_flags_planted_mismatch() {
  // A real TRACK execution, checked the way the benchmark checks it.
  const wlp::workloads::TrackLoop loop({.candidates = 4000, .error_position = 0.9, .seed = 3});
  std::vector<double> want_pos = loop.fresh_positions(), want_vel = loop.fresh_velocities();
  const long want_trip = loop.run_sequential(want_pos, want_vel);

  wlp::ThreadPool pool(2);
  std::vector<double> pos = loop.fresh_positions(), vel = loop.fresh_velocities();
  const long trip = loop.run_induction1(pool, pos, vel).trip;
  expect(e2e::diff_trip(trip, want_trip).empty(), "parallel trip matches");
  expect(e2e::diff_array("pos", pos, want_pos).empty(), "parallel positions match");
  expect(e2e::diff_array("vel", vel, want_vel).empty(), "parallel velocities match");

  // One element off by one ulp must be caught, and named.
  const std::size_t at = pos.size() / 3;
  pos[at] = std::nextafter(pos[at], 1e300);
  expect(e2e::diff_array("pos", pos, want_pos) == "pos[" + std::to_string(at) + "] differs",
         "checker names the planted one-ulp mismatch");
  // Same value, different bytes: -0.0 against 0.0.
  std::vector<double> zeros(8, 0.0), negzero(8, 0.0);
  negzero[5] = -0.0;
  expect(!e2e::diff_array("m", negzero, zeros).empty(), "checker compares bytes, not values");
  expect(!e2e::diff_array("m", std::vector<double>(7, 0.0), zeros).empty(),
         "checker flags a length mismatch");
  expect(!e2e::diff_trip(trip + 1, want_trip).empty(), "checker flags a trip mismatch");
}

void test_workloads_pass_their_own_check() {
  // One execution of each mode per workload, as a round runs them.
  wlp::ThreadPool pool1(1), pool2(2);
  for (std::string_view name : e2e::workload_names()) {
    auto loop = e2e::make_loop(name, 0);
    const std::string label(name);
    loop->reset();
    loop->run_sequential();
    expect(loop->check().empty(), (label + ": sequential run checks").c_str());
    for (wlp::ThreadPool* p : {&pool1, &pool2}) {
      loop->reset();
      loop->run_parallel(*p);
      expect(loop->check().empty(), (label + ": parallel run checks").c_str());
    }
    if (loop->has_ideal()) {
      loop->reset();
      loop->run_ideal(pool2);
      expect(loop->check().empty(), (label + ": oracle run checks").c_str());
    }
    // A state left unreset fails the checker: the reference is not the
    // pre-loop state.
    loop->reset();
    expect(!loop->check().empty(), (label + ": unrun state fails the check").c_str());
  }
  expect(e2e::make_loop("nope", 0) == nullptr, "unknown workload is refused");
}

}  // namespace

int main() {
  test_quantile();
  test_paired_median();
  test_self_time();
  test_checker_flags_planted_mismatch();
  test_workloads_pass_their_own_check();
  if (failures == 0) std::printf("OK: e2e self-test\n");
  return failures == 0 ? 0 : 1;
}
