// Shared scaffolding for the figure/table benches.
//
// Each bench prints (a) the paper's reference numbers next to ours, (b) an
// ASCII speedup curve per series so the shape is visible in plain terminal
// output, and (c) writes a machine-readable BENCH_<name>.json in the same
// schema family as BENCH_forkjoin.json.  Speedups come from the
// simulated multiprocessor (see DESIGN.md, "Substitutions": the host has a
// single core, so the Alliant FX/80 is modeled, not timed); functional
// correctness of every method is established by the test suite and spot-
// checked here through the real threaded runtime.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "wlp/sim/simulator.hpp"
#include "wlp/support/json.hpp"
#include "wlp/support/stats.hpp"
#include "wlp/support/table.hpp"

namespace wlp::bench {

inline const std::vector<int>& processor_counts() {
  static const std::vector<int> ps{1, 2, 3, 4, 5, 6, 7, 8};
  return ps;
}

struct Series {
  std::string label;
  std::vector<double> speedups;  ///< one per processor count
  double paper_at_8 = 0;         ///< the paper's value at p = 8 (0 = n/a)
};

/// Emit one figure's data as BENCH_<name>.json: the same schema family as
/// BENCH_forkjoin.json (a "bench" slug, host info, then the payload), so one
/// script can sweep every artifact the benches produce.  Exits 1 when the
/// file cannot be written, so a stale copy is never read as this run's.
inline void write_figure_json(const std::string& name, const std::string& title,
                              const std::vector<Series>& series) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  JsonWriter w(os);
  w.begin_object();
  w.kv("bench", name);
  w.kv("title", title);
  w.kv("host_hw_concurrency", std::thread::hardware_concurrency());
  w.key("processor_counts").begin_array();
  for (int p : processor_counts()) w.value(p);
  w.end_array();
  w.key("series").begin_array();
  for (const Series& s : series) {
    w.begin_object();
    w.kv("label", s.label);
    if (s.paper_at_8 > 0) w.kv("paper_at_8", s.paper_at_8);
    w.kv("measured_at_8", s.speedups.empty() ? 0.0 : s.speedups.back());
    w.key("speedups").begin_array();
    for (double v : s.speedups) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  std::printf("wrote %s\n", path.c_str());
}

/// Print one figure: per-series curves, the p = 8 comparison against the
/// paper, and the BENCH_<name>.json artifact (`name` is the machine slug,
/// e.g. "fig06_spice").
inline void print_figure(const std::string& title, const std::vector<Series>& series,
                         const std::string& name) {
  std::printf("==== %s ====\n\n", title.c_str());

  double ymax = 1;
  for (const Series& s : series)
    for (double v : s.speedups) ymax = std::max(ymax, v);
  for (const Series& s : series) {
    ascii_curve(std::cout, s.label, processor_counts(), s.speedups, ymax);
    std::printf("\n");
  }

  TextTable cmp({"series", "paper speedup @8", "measured @8", "rel. err"});
  for (const Series& s : series) {
    const double at8 = s.speedups.empty() ? 0 : s.speedups.back();
    cmp.row({s.label,
             s.paper_at_8 > 0 ? TextTable::num(s.paper_at_8, 1) : "-",
             TextTable::num(at8, 2),
             s.paper_at_8 > 0
                 ? TextTable::num(relative_error(at8, s.paper_at_8) * 100, 1) + "%"
                 : "-"});
  }
  cmp.print();
  std::printf("\n");

  write_figure_json(name, title, series);
  std::printf("\n");
}

}  // namespace wlp::bench
