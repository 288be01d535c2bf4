// Resource-controlled self-scheduling — Section 8.2's sliding window.
//
// Time-stamp memory grows with the spread between the oldest incomplete and
// the newest issued iteration.  The windowed scheduler bounds that spread
// and adapts the window to a memory budget against what its speculation
// round pins.  This example speculates over a sparse array, whose backup
// grows with every location the loop touches, under three budgets: the two
// smaller ones bind and pull the window down, the largest never does.  For
// each run it prints the window the controller ended at, the maximum
// spread observed and the round's peak footprint, and it checks the result
// against the sequential loop.  A round pins its backup until it commits,
// so the footprint only grows during a run: a binding budget shrinks the
// window, it does not cap the bytes already pinned.
//
// Build & run:  ./example_adaptive_window
#include <cstdio>
#include <span>
#include <vector>

#include "wlp/core/sliding_window.hpp"
#include "wlp/core/sparse_spec.hpp"
#include "wlp/support/table.hpp"

int main() {
  wlp::ThreadPool pool;
  const long n = 20000, exit_at = 18000;  // a loop with a late RV exit
  auto value = [](long i) { return 0.5 * static_cast<double>(i) + 1.0; };

  std::vector<double> expect(static_cast<std::size_t>(n), 0.0);
  for (long i = 0; i < exit_at; ++i)
    expect[static_cast<std::size_t>(i)] = value(i);

  wlp::TextTable table(
      {"budget (KiB)", "final window", "max spread", "peak KiB", "trip"});

  for (const std::size_t budget_kib : {16, 256, 4096}) {
    std::vector<double> state(static_cast<std::size_t>(n), 0.0);
    wlp::SparseSpecArray<double> arr(state, pool.size(),
                                     static_cast<std::size_t>(n),
                                     /*run_pd_test=*/true);
    wlp::SpecTarget* targets[] = {&arr};
    wlp::WindowOptions opts;
    opts.window = 4096;  // start big; a binding budget pulls it down
    opts.min_window = 2;
    opts.memory_budget = budget_kib * 1024;

    const wlp::WindowReport wr = wlp::sliding_window_speculative_while(
        pool, n, std::span<wlp::SpecTarget* const>(targets, 1),
        [&](long i, unsigned vpn) {
          arr.begin_iteration(vpn, i);
          if (i == exit_at) return wlp::IterAction::kExit;
          arr.set(vpn, i, static_cast<std::size_t>(i), value(i));
          return wlp::IterAction::kContinue;
        },
        [&] {
          for (long i = 0; i < exit_at; ++i)
            state[static_cast<std::size_t>(i)] = value(i);
          return exit_at;
        },
        opts);

    const double peak_kib =
        static_cast<double>(wr.exec.peak_spec_bytes) / 1024.0;
    table.row({wlp::TextTable::num(static_cast<long>(budget_kib)),
               wlp::TextTable::num(wr.final_window),
               wlp::TextTable::num(wr.max_span),
               wlp::TextTable::num(peak_kib, 2),
               wlp::TextTable::num(wr.exec.trip)});

    if (wr.exec.trip != exit_at || state != expect) {
      std::printf("MISMATCH against the sequential loop (budget %zu KiB)\n",
                  budget_kib);
      return 1;
    }
  }
  table.print();
  std::printf("OK: every budgeted run matched the sequential loop\n");
  return 0;
}
