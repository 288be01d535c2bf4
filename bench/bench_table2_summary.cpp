// Table 2 — summary of experimental results: all five loops, their methods,
// inputs, backup/time-stamp requirements, and the speedup at p = 8 on the
// simulated machine next to the paper's Alliant FX/80 numbers.  Each row is
// the p = 8 point of a Figs. 6-14 curve, built from the same config table
// (paper_figures.hpp).  Also emits BENCH_table2.json.
#include <cstdio>
#include <fstream>

#include "paper_figures.hpp"

using namespace wlp;
using namespace wlp::bench;

int main() {
  ThreadPool pool;
  std::vector<Table2Row> rows;
  for (int number = 6; number <= 14; ++number) {
    const Figure f = figure(pool, number);
    if (!f.failure.empty()) {
      std::printf("FUNCTIONAL FAILURE (%s): %s\n", f.slug.c_str(), f.failure.c_str());
      return 1;
    }
    rows.insert(rows.end(), f.rows.begin(), f.rows.end());
  }

  TextTable table({"benchmark / loop", "technique", "input", "paper", "measured",
                   "backups+stamps"});
  for (const Table2Row& r : rows)
    table.row({r.loop, r.technique, r.input, TextTable::num(r.paper, 1),
               TextTable::num(r.measured, 2), r.undo});
  std::printf("==== Table 2: summary of experimental results (p = 8) ====\n\n");
  table.print();
  std::printf(
      "\n'paper' = Alliant FX/80 measurement from the publication;\n"
      "'measured' = this library's runtime schedules executed on the simulated\n"
      "8-processor machine (see DESIGN.md, Substitutions).\n");

  std::ofstream os("BENCH_table2.json");
  if (!os) {
    std::fprintf(stderr, "cannot open BENCH_table2.json\n");
    return 1;
  }
  JsonWriter w(os);
  w.begin_object();
  w.kv("bench", "table2_summary");
  w.kv("title", "Table 2: summary of experimental results (p = 8)");
  w.kv("host_hw_concurrency", std::thread::hardware_concurrency());
  w.key("rows").begin_array();
  for (const Table2Row& r : rows) {
    w.begin_object();
    w.kv("loop", r.loop);
    w.kv("technique", r.technique);
    w.kv("input", r.input);
    w.kv("paper_at_8", r.paper);
    w.kv("measured_at_8", r.measured);
    w.kv("backups_and_stamps", r.undo);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  std::printf("wrote BENCH_table2.json\n");
  return 0;
}
