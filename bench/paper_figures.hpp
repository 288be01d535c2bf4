// The paper's evaluation (Section 9): the config table that Table 2 and
// Figs. 6-14 share, and the code that turns one entry into one figure.
//
// Each loop and input has one entry: the configuration this library runs
// and the speedup at p = 8 the paper reports on the Alliant FX/80.  Every
// bench_figNN program and bench_table2_summary build their curves from these
// entries through figure(), so Table 2's rows are the figures' p = 8 points.
// Entries use designated initializers, so an entry keeps its meaning when a
// config struct gains a field.
//
// Speedups come from the simulated 8-processor machine (DESIGN.md,
// "Substitutions"); each figure first runs its loop once through the real
// threaded runtime and checks the result against the sequential loop.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

#include "wlp/workloads/hb_generator.hpp"
#include "wlp/workloads/ma28_pivot.hpp"
#include "wlp/workloads/mcsparse_pivot.hpp"
#include "wlp/workloads/sparse_lu.hpp"
#include "wlp/workloads/spice.hpp"
#include "wlp/workloads/track.hpp"

namespace wlp::bench {

// ---- the config table ------------------------------------------------------

/// SPICE LOAD loop 40 (Fig. 6): the capacitor device list, RI terminator,
/// no backups and no time-stamps.
struct SpiceEntry {
  workloads::SpiceConfig config;
  double paper_general1, paper_general3;
};
inline constexpr SpiceEntry kSpice{
    .config = {.devices = 4000, .min_terms = 4, .max_terms = 24, .seed = 42},
    .paper_general1 = 2.9,
    .paper_general3 = 4.9,
};

/// TRACK FPTRAK loop 300 (Fig. 7): an induction DO loop with an RV error
/// exit, so checkpoint and time-stamps are on.
struct TrackEntry {
  workloads::TrackConfig config;
  double paper_induction1;
};
inline constexpr TrackEntry kTrack{
    .config = {.candidates = 5000, .error_position = 0.93, .seed = 7},
    .paper_induction1 = 5.8,
};

using MatrixFn = workloads::SparseMatrix (*)();

/// MCSPARSE DFACT loop 500 (Figs. 8-11), the WHILE-DOANY pivot search, one
/// entry per input.  The acceptance bound and the search order set the
/// search depth, which is the input's available parallelism; they are
/// calibrated to the paper's speedups (EXPERIMENTS.md).
struct McsparseEntry {
  int figure;
  const char* input;
  MatrixFn matrix;
  workloads::DoanyConfig config;
  double paper_at_8;
};
inline constexpr McsparseEntry kMcsparse[] = {
    {.figure = 8, .input = "gematt11",
     .matrix = [] { return workloads::gen_gematt11(); },
     .config = {.accept_cost = 0, .seed = 500}, .paper_at_8 = 7.0},
    {.figure = 9, .input = "gematt12",
     .matrix = [] { return workloads::gen_gematt12(); },
     .config = {.accept_cost = 0, .seed = 500}, .paper_at_8 = 6.8},
    {.figure = 10, .input = "orsreg1",
     .matrix = [] { return workloads::gen_orsreg1(); },
     .config = {.accept_cost = 25, .seed = 500}, .paper_at_8 = 4.8},
    {.figure = 11, .input = "saylr4",
     .matrix = [] { return workloads::gen_saylr4(); },
     .config = {.accept_cost = 16, .seed = 502}, .paper_at_8 = 5.7},
};

/// One MA28 MA30AD search loop: 270 searches rows, 320 columns.  The search
/// runs on the active submatrix left after `eliminated` of the pivots:
/// fill-in makes the row and column counts uneven, the state the MA30AD
/// loops face (a fresh diagonally dominant matrix lets the (nz-1)^2 bound
/// fire after one count level).  The fraction is calibrated per input to the
/// search depth the paper's speedup implies (EXPERIMENTS.md).
struct Ma28Loop {
  workloads::PivotSearchConfig search;
  double eliminated;
  double paper_at_8;
};
inline constexpr workloads::PivotSearchConfig kLoop270{
    .threshold_u = 0.1, .axis = workloads::SearchAxis::kRows};
inline constexpr workloads::PivotSearchConfig kLoop320{
    .threshold_u = 0.1, .axis = workloads::SearchAxis::kColumns};

/// MA28 (Figs. 12-14), one entry per input.
struct Ma28Entry {
  int figure;
  const char* input;
  MatrixFn matrix;
  Ma28Loop loop270, loop320;
};
inline constexpr Ma28Entry kMa28[] = {
    {.figure = 12, .input = "gematt11",
     .matrix = [] { return workloads::gen_gematt11(); },
     .loop270 = {.search = kLoop270, .eliminated = 0.45, .paper_at_8 = 3.5},
     .loop320 = {.search = kLoop320, .eliminated = 0.35, .paper_at_8 = 4.8}},
    {.figure = 13, .input = "gematt12",
     .matrix = [] { return workloads::gen_gematt12(); },
     .loop270 = {.search = kLoop270, .eliminated = 0.50, .paper_at_8 = 3.4},
     .loop320 = {.search = kLoop320, .eliminated = 0.35, .paper_at_8 = 4.5}},
    {.figure = 14, .input = "orsreg1",
     .matrix = [] { return workloads::gen_orsreg1(); },
     .loop270 = {.search = kLoop270, .eliminated = 0.30, .paper_at_8 = 5.3},
     .loop320 = {.search = kLoop320, .eliminated = 0.50, .paper_at_8 = 2.8}},
};

// ---- figures ---------------------------------------------------------------

/// One line of Table 2.
struct Table2Row {
  std::string loop, technique, input, undo;
  double paper = 0, measured = 0;
};

/// One figure: its curves, its Table 2 rows and the outcome of running its
/// loop once through the real threaded runtime.
struct Figure {
  std::string title, slug;  ///< slug names BENCH_<slug>.json
  std::vector<Series> series;
  std::vector<Table2Row> rows;
  std::string notes;    ///< printed under the figure
  std::string failure;  ///< empty when the runtime result is correct

  /// Add one simulated curve; a curve the paper gives a number for
  /// (row.paper > 0) is also a row of Table 2.
  void add(std::string label, std::vector<double> speedups, Table2Row row = {}) {
    if (row.paper > 0) {
      row.measured = speedups.back();
      rows.push_back(row);
    }
    series.push_back(
        {.label = std::move(label), .speedups = std::move(speedups), .paper_at_8 = row.paper});
  }
};

[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& s, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  s += buf;
}

/// Fig. 6: General-1 (cooperative traversal, next() under a lock) against
/// General-3 (private traversal, dynamic self-scheduling, no locks).
inline Figure spice_figure(ThreadPool& pool) {
  Figure f;
  f.title = "Figure 6: SPICE LOAD loop 40 (device list, RI terminator)";
  f.slug = "fig06_spice";
  const workloads::SpiceLoad load(kSpice.config);
  std::vector<double> ref = load.fresh_matrix();
  load.run_sequential(ref);
  std::vector<double> out = load.fresh_matrix();
  const ExecReport g3 = load.run_general3(pool, out);
  if (out != ref || g3.trip != kSpice.config.devices)
    f.failure = "General-3 result differs from sequential";

  const sim::Simulator sim;
  const sim::LoopProfile lp = load.profile();
  f.add("General-1 (locks)", sim.speedup_curve(Method::kGeneral1, lp, processor_counts()),
        {.loop = "SPICE LOAD 40", .technique = "General-1 (locks)", .input = "-",
         .undo = "no", .paper = kSpice.paper_general1});
  f.add("General-3 (no locks)", sim.speedup_curve(Method::kGeneral3, lp, processor_counts()),
        {.loop = "SPICE LOAD 40", .technique = "General-3 (no locks)", .input = "-",
         .undo = "no", .paper = kSpice.paper_general3});
  appendf(f.notes, "devices=%ld  mean work/device=%.2f cycles  hops(G3 runtime)=%ld\n",
          kSpice.config.devices, lp.total_work_below(lp.trip) / static_cast<double>(lp.trip),
          g3.dispatcher_steps);
  return f;
}

/// Fig. 7: Induction-1 with backups and time-stamps, the Wu-Lewis DOACROSS
/// baseline and the hand-parallelized ideal the paper also plots.
inline Figure track_figure(ThreadPool& pool) {
  Figure f;
  f.title = "Figure 7: TRACK FPTRAK loop 300 (induction, RV error exit)";
  f.slug = "fig07_track";
  const workloads::TrackLoop loop(kTrack.config);
  std::vector<double> pos_ref = loop.fresh_positions();
  std::vector<double> vel_ref = loop.fresh_velocities();
  loop.run_sequential(pos_ref, vel_ref);
  std::vector<double> pos = loop.fresh_positions();
  std::vector<double> vel = loop.fresh_velocities();
  const ExecReport rt = loop.run_induction1(pool, pos, vel);
  if (pos != pos_ref || vel != vel_ref)
    f.failure = "undo did not restore the sequential state";

  const sim::Simulator sim;
  const sim::LoopProfile profile = loop.profile();
  sim::SimOptions stamped;
  stamped.stamps = true;
  stamped.checkpoint = true;
  // The hand-parallelized ideal: trip known up front, no overheads.
  sim::LoopProfile ideal = profile;
  ideal.u = ideal.trip;  // no overshoot possible
  ideal.overshoot_does_work = false;

  f.add("Induction-1 (+backup +stamps)",
        sim.speedup_curve(Method::kInduction1, profile, processor_counts(), stamped),
        {.loop = "TRACK FPTRAK 300", .technique = "Induction-1", .input = "-",
         .undo = "yes", .paper = kTrack.paper_induction1});
  // The Wu-Lewis DOACROSS pipeline is the baseline every General/Induction
  // comparison rests on (Sections 3.3/10): its speedup is capped near
  // Twork/Tnext by the serialized dispatcher chain, which is exactly the
  // gap Induction-1 closes.  The real-runtime pipeline behind this curve is
  // the frontier-word handoff measured by bench_micro_doacross.
  f.add("Wu-Lewis DOACROSS (baseline)",
        sim.speedup_curve(Method::kWuLewisDoacross, profile, processor_counts()));
  f.add("ideal (hand-parallelized)",
        sim.speedup_curve(Method::kInduction2, ideal, processor_counts()));
  appendf(f.notes, "candidates=%ld  error at iteration %ld  runtime undo restored %ld writes\n",
          kTrack.config.candidates, loop.expected_trip(), rt.undone_writes);
  return f;
}

/// Figs. 8-11: the search is order-insensitive, so although the terminator
/// is RV and the parallel search overshoots, DOANY needs no backups and no
/// time-stamps: any admissible pivot is a correct answer.
inline Figure mcsparse_figure(ThreadPool& pool, const McsparseEntry& e) {
  Figure f;
  appendf(f.title, "Figure %d: MCSPARSE DFACT loop 500, input %s", e.figure, e.input);
  appendf(f.slug, "fig%02d_mcsparse_%s", e.figure, e.input);
  const workloads::SparseMatrix matrix = e.matrix();
  const workloads::McsparsePivotSearch search(matrix, e.config);
  ExecReport rt;
  const workloads::PivotCandidate p = search.search_doany(pool, rt);
  if (!p.valid() || !search.acceptable(p)) f.failure = "DOANY returned no acceptable pivot";
  long seq_trip = 0;
  search.search_sequential(&seq_trip);

  const sim::Simulator sim;
  f.add(std::string("WHILE-DOANY (") + e.input + ")",
        sim.speedup_curve(Method::kDoany, search.profile(), processor_counts()),
        {.loop = "MCSPARSE DFACT 500", .technique = "WHILE-DOANY", .input = e.input,
         .undo = "no", .paper = e.paper_at_8});
  appendf(f.notes,
          "n=%d nnz=%ld  candidates=%ld  sequential search depth=%ld\n"
          "no backups, no time-stamps (order-insensitive search)\n",
          matrix.rows(), matrix.nnz(), search.candidates(), seq_trip);
  return f;
}

/// Figs. 12-14: MA28 is a sequential program, so the parallel search must be
/// sequentially consistent: candidates are time-stamped and the pivot is
/// recovered by a time-stamp-ordered reduction over the per-processor
/// results.  "Induction-1" is the paper's Alliant configuration, ordered
/// issue plus QUIT, i.e. this library's while_induction2 schedule.
inline Figure ma28_figure(ThreadPool& pool, const Ma28Entry& e) {
  Figure f;
  appendf(f.title, "Figure %d: MA28 MA30AD loops 270/320, input %s", e.figure, e.input);
  appendf(f.slug, "fig%02d_ma28_%s", e.figure, e.input);
  const workloads::SparseMatrix matrix = e.matrix();
  const sim::Simulator sim;
  sim::SimOptions stamped;
  stamped.stamps = true;
  stamped.checkpoint = true;

  for (const auto& [name, l] : {std::pair{"270", e.loop270}, std::pair{"320", e.loop320}}) {
    workloads::MarkowitzLU lu(matrix);
    lu.factor_steps(
        static_cast<std::int32_t>(static_cast<double>(matrix.rows()) * l.eliminated));
    const workloads::Ma28PivotSearch search(lu.active_submatrix(), l.search);
    ExecReport rt;
    const workloads::PivotCandidate par = search.search_induction1(pool, rt);
    long depth = 0;
    const workloads::PivotCandidate seq = search.search_sequential(&depth);
    if (par.row != seq.row || par.col != seq.col || rt.trip != depth)
      appendf(f.failure, "loop %s parallel pivot differs; ", name);

    const std::string label = std::string("loop ") + name;
    const sim::LoopProfile lp = search.profile();
    f.add(label + " Induction-1",
          sim.speedup_curve(Method::kInduction2, lp, processor_counts(), stamped),
          {.loop = std::string("MA28 MA30AD ") + name, .technique = "Ind-1 + Gen-3",
           .input = e.input, .undo = "yes", .paper = l.paper_at_8});
    f.add(label + " General-3",
          sim.speedup_curve(Method::kGeneral3, lp, processor_counts(), stamped));
    appendf(f.notes, "%s: active submatrix n=%d, search depth %ld of %ld candidates\n",
            label.c_str(), lu.n() - lu.pivots_done(), depth, search.candidates());
  }
  f.notes += "backups + time-stamps on: pivots reduced in time-stamp order\n";
  return f;
}

/// Figure `number` (6-14) of the paper.
inline Figure figure(ThreadPool& pool, int number) {
  if (number == 6) return spice_figure(pool);
  if (number == 7) return track_figure(pool);
  for (const McsparseEntry& e : kMcsparse)
    if (e.figure == number) return mcsparse_figure(pool, e);
  for (const Ma28Entry& e : kMa28)
    if (e.figure == number) return ma28_figure(pool, e);
  Figure none;
  none.failure = "no such figure";
  return none;
}

/// main() of a figure bench: print the figure and write BENCH_<slug>.json,
/// or exit 1 when the runtime result is wrong.
inline int run_figure(int number) {
  ThreadPool pool;
  const Figure f = figure(pool, number);
  if (!f.failure.empty()) {
    std::printf("FUNCTIONAL FAILURE: %s\n", f.failure.c_str());
    return 1;
  }
  print_figure(f.title, f.series, f.slug);
  std::printf("%s", f.notes.c_str());
  return 0;
}

}  // namespace wlp::bench
