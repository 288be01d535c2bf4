// Wall-clock end-to-end benchmark of the paper's loops on the real runtime.
//
//   wlp_e2e --workload <track|spice> --seed N --seconds S --trace 0|1
//           [--trace-file PATH]
//
// bench_e2e/run.py builds this program and runs it with the same arguments.
//
// A round runs the workload three times on the same state, which is reset
// in place before each execution: the loop's own sequential version, the
// parallel method on a ThreadPool(1) and on a ThreadPool(P), with
// P = max(2, nproc - 1) so one vCPU stays free for the host.  The order of
// the three rotates from round to round, and so does the stack slot the
// runtime's claim counters land in (see execute()).  Both pools live for
// the whole run; the process never has more than P threads.  Every
// execution is checked against the sequential reference; the program exits
// nonzero if any check fails.
//
// setup_s is the time from the start of a fresh process to its first timed
// round.  The program forks kSetups - 1 children before it builds anything;
// each does a complete set-up, hands its times back and exits.  Then the
// program sets itself up and measures.  setup_s is the median of all of them.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 first repeats the
// untraced measurement, then runs as many traced rounds: each call into a
// layer becomes a span, the layers' counters are read at each span
// boundary outside the timed interval, and the per-layer metrics are
// derived from span self times and counter deltas.  Spans and counters go
// to --trace-file.  The last line of standard output is one JSON object
// with the metrics of the selected mode.
#include <alloca.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "loops.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/obs/metrics.hpp"
#include "wlp/obs/trace.hpp"
#include "wlp/support/json.hpp"
#include "wlp/support/stats.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using e2e::now_ns;

constexpr int kSetups = 5;         // cold set-ups per run; setup_s is their median
constexpr int kWarmupRounds = 3;   // untimed rounds at the end of each set-up
constexpr int kMinRounds = 110;    // so >= 10 samples lie beyond the p90
constexpr int kLaunchProbes = 15;  // empty launches timed per traced round

enum Mode { kSeq, kP1, kPP, kModes };
constexpr const char* kModeName[kModes] = {"seq", "p1", "pP"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_file = "wlp_e2e_trace.json";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-file") a.trace_file = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

unsigned host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string thp_mode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string s;
  std::getline(f, s);
  const auto b = s.find('['), e = s.find(']');
  return b != std::string::npos && e > b ? s.substr(b + 1, e - b - 1) : "unknown";
}

/// A numeric field of /proc/self/status ("VmHWM", "Threads"); -1 if absent.
long proc_status(const std::string& key) {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.compare(0, key.size() + 1, key + ":") == 0)
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
  return -1;
}

/// The first line of /proc/stat: jiffies summed over all vCPUs, and the
/// part of them in which the hypervisor ran something else on a vCPU that
/// had work ("steal").
struct CpuJiffies {
  long long steal = 0, total = 0;
};

CpuJiffies cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuJiffies j;
  for (int k = 0; k < 8; ++k) {  // user nice system idle iowait irq softirq steal
    long long v = 0;
    f >> v;
    j.total += v;
    if (k == 7) j.steal = v;
  }
  return j;
}

struct Tally {
  long attempted = 0;
  long failed = 0;
  std::string first_failure;
};

// ---- traced-run state -------------------------------------------------------

/// The layers' own counters, read at span boundaries.
struct Counters {
  wlp::PoolStats pool1, poolP;
  std::uint64_t doall_claims = 0, doall_started = 0;
  std::uint64_t checkpoint_ns = 0, restore_ns = 0;
  wlp::mem::BudgetSnapshot mem;
};

class CounterReader {
 public:
  Counters read(const wlp::ThreadPool& pool1, const wlp::ThreadPool& poolP) const {
    Counters c;
    c.pool1 = pool1.stats();
    c.poolP = poolP.stats();
    c.doall_claims = claims_.value();
    c.doall_started = started_.value();
    c.checkpoint_ns = checkpoint_.value();
    c.restore_ns = restore_.value();
    c.mem = wlp::mem::Budget::process().snapshot();
    return c;
  }

 private:
  wlp::obs::Registry& reg_ = wlp::obs::Registry::instance();
  const wlp::obs::Counter& claims_ = reg_.counter("wlp.doall.claims");
  const wlp::obs::Counter& started_ = reg_.counter("wlp.doall.started");
  const wlp::obs::Counter& checkpoint_ = reg_.counter("wlp.undo.checkpoint_ns");
  const wlp::obs::Counter& restore_ = reg_.counter("wlp.undo.restore_ns");
};

/// One traced execution of the workload.
struct ExecRecord {
  int span = -1;
  Mode mode = kSeq;
  bool ideal = false;
  Counters before, after;
  wlp::ExecReport report;
};

struct Trace {
  e2e::SpanLog log;
  CounterReader counters;
  std::vector<ExecRecord> execs;
};

// ---- one complete set-up ------------------------------------------------------

struct Bench {
  std::unique_ptr<wlp::ThreadPool> pool1, poolP;
  std::unique_ptr<e2e::Loop> loop;
  std::array<std::vector<double>, kModes> ms;  // per-mode execution times

  wlp::ThreadPool& pool(Mode m) { return m == kP1 ? *pool1 : *poolP; }
};

void record_failure(Tally& t, const std::string& what) {
  ++t.failed;
  if (t.first_failure.empty()) t.first_failure = what;
}

/// Reset the state, run one execution, check it.  Returns its wall time.
double execute(Bench& b, Mode m, bool ideal, Tally& tally, Trace* tr, int parent,
               int round) {
  // Move the callees' frames by 16 bytes per round, through all four 16-byte
  // slots of a cache line.  The DOALL and General-3 claim counters live
  // unpadded on the calling thread's stack, and in one slot out of four the
  // p = P time of track grows ~1.45x (most likely the counter then shares
  // its line with state every worker reads).  ASLR picks the slot once per
  // process, so without this cycle one run in four landed in it as a whole.
  static_cast<volatile char*>(alloca(16 * (1 + round % 4)))[0] = 0;

  e2e::Loop& loop = *b.loop;
  const int reset_span = tr ? tr->log.open("reset", parent, round) : -1;
  loop.reset();
  if (tr) tr->log.close(reset_span);

  ExecRecord rec;
  rec.mode = m;
  rec.ideal = ideal;
  if (tr) rec.before = tr->counters.read(*b.pool1, *b.poolP);
  const char* name = ideal ? (m == kP1 ? "ideal.p1" : "ideal.pP") : kModeName[m];
  if (tr) rec.span = tr->log.open(name, parent, round);

  ++tally.attempted;
  const std::int64_t t0 = now_ns();
  std::string fail;
  try {
    if (ideal) loop.run_ideal(b.pool(m));
    else if (m == kSeq) loop.run_sequential();
    else rec.report = loop.run_parallel(b.pool(m));
  } catch (const std::exception& e) {
    fail = std::string("exception: ") + e.what();
  }
  const std::int64_t t1 = now_ns();

  if (tr) {
    tr->log.close(rec.span);
    rec.after = tr->counters.read(*b.pool1, *b.poolP);
    tr->execs.push_back(rec);
  }
  if (fail.empty()) fail = loop.check();
  if (!fail.empty())
    record_failure(tally, std::string(name) + " round " + std::to_string(round) +
                              ": " + fail);
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// One round: sequential, p = 1 and p = P in rotated order.  Traced rounds
/// add the oracle DOALL at both p and a fork-join launch probe.
void run_round(Bench& b, int round, bool record, Tally& tally, Trace* tr) {
  std::array<Mode, kModes> order{kSeq, kP1, kPP};
  std::rotate(order.begin(), order.begin() + round % kModes, order.end());
  const int rs = tr ? tr->log.open("round", -1, round) : -1;
  for (Mode m : order) {
    const double ms = execute(b, m, false, tally, tr, rs, round);
    if (record) b.ms[m].push_back(ms);
  }
  if (tr) {
    if (b.loop->has_ideal()) {
      execute(b, kP1, true, tally, tr, rs, round);
      execute(b, kPP, true, tally, tr, rs, round);
    }
    const int ps = tr->log.open("launch_probe", rs, round);
    for (int k = 0; k < kLaunchProbes; ++k) {
      const int ls = tr->log.open("launch", ps, round);
      b.poolP->parallel([](unsigned) {});
      tr->log.close(ls);
    }
    tr->log.close(ps);
    tr->log.close(rs);
  }
}

struct SetupTimes {
  double pool_s = 0, inputs_s = 0, warmup_s = 0, total_s = 0;
};

/// Pools, inputs with the sequential reference, and warm-up rounds.
SetupTimes set_up(Bench& b, const Args& a, unsigned P, Tally& tally) {
  SetupTimes t;
  const std::int64_t t0 = now_ns();
  b.pool1 = std::make_unique<wlp::ThreadPool>(1);
  b.poolP = std::make_unique<wlp::ThreadPool>(P);
  const std::int64_t t1 = now_ns();
  b.loop = e2e::make_loop(a.workload, a.seed);
  const std::int64_t t2 = now_ns();
  for (int r = 0; r < kWarmupRounds; ++r) run_round(b, r, false, tally, nullptr);
  const std::int64_t t3 = now_ns();
  t.pool_s = static_cast<double>(t1 - t0) * 1e-9;
  t.inputs_s = static_cast<double>(t2 - t1) * 1e-9;
  t.warmup_s = static_cast<double>(t3 - t2) * 1e-9;
  t.total_s = static_cast<double>(t3 - t0) * 1e-9;
  return t;
}

/// What a set-up in a child process hands back.  Lives in a shared page,
/// so it holds no pointers.
struct ChildSetup {
  bool ok;
  SetupTimes times;
  long attempted, failed;
  char first_failure[256];
};

/// Runs `n` set-ups one after another, each in a child forked before this
/// process has built a pool or an input, so that each pays thread creation
/// and first-touch page faults as a fresh process does.  Appends their times
/// and adds their checked executions to `tally`.  False if one did not
/// finish.
bool child_setups(int n, const Args& a, unsigned P, std::vector<SetupTimes>& out,
                  Tally& tally) {
  const std::size_t bytes = sizeof(ChildSetup) * static_cast<std::size_t>(n);
  void* page = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (page == MAP_FAILED) return false;
  auto* slots = static_cast<ChildSetup*>(page);  // zero-filled: ok == false
  bool ok = true;
  for (int k = 0; ok && k < n; ++k) {
    ChildSetup& s = slots[k];
    std::fflush(stdout);  // or the child would print the buffered header again
    const pid_t pid = fork();
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      Bench b;
      Tally t;
      try {
        s.times = set_up(b, a, P, t);
        s.ok = true;
      } catch (const std::exception& e) {
        t.first_failure = std::string("exception: ") + e.what();
      }
      s.attempted = t.attempted;
      s.failed = t.failed;
      std::snprintf(s.first_failure, sizeof s.first_failure, "%s", t.first_failure.c_str());
      std::_Exit(0);  // the pools' threads end with the process
    }
    int status = 0;
    ok = pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) && s.ok;
    tally.attempted += s.attempted;
    tally.failed += s.failed;
    if (tally.first_failure.empty() && s.first_failure[0] != '\0')
      tally.first_failure = "set-up " + std::to_string(k) + ": " + s.first_failure;
    if (ok) out.push_back(s.times);
  }
  munmap(page, bytes);
  return ok;
}

/// Timed rounds until `seconds` have passed and at least kMinRounds ran, or
/// exactly `rounds` when given.
int measure(Bench& b, double seconds, int rounds, Tally& tally, Trace* tr) {
  for (auto& v : b.ms) v.clear();
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  int r = 0;
  for (; rounds > 0 ? r < rounds : (r < kMinRounds || now_ns() < deadline); ++r)
    run_round(b, r, true, tally, tr);
  return r;
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

using wlp::median;
double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }
constexpr double kMiB = 1024.0 * 1024.0;

std::vector<Metric> end_to_end(const Bench& b, const std::vector<SetupTimes>& setups) {
  std::vector<double> setup_s;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total_s);
  const auto& pP = b.ms[kPP];
  const std::size_t n = pP.size();
  return {
      {"round_ms.p50", e2e::quantile(pP, 0.5), "ms", n},
      {"round_ms.p90", e2e::quantile(pP, 0.9), "ms", n},
      {"speedup", e2e::paired_median(b.ms[kSeq], pP), "x", n},
      {"p1_tax", e2e::paired_median(b.ms[kP1], b.ms[kSeq]), "x", n},
      {"peak_rss_mb", static_cast<double>(proc_status("VmHWM")) / 1024.0, "MiB", 1},
      {"setup_s", median(setup_s), "s", setup_s.size()},
  };
}

/// Per-layer metrics from the traced rounds.  Times are medians per
/// execution, counts are means per execution, fractions are pooled.
std::vector<Metric> per_layer(const Trace& tr, const std::vector<SetupTimes>& setups,
                              double traced_p50, double untraced_p50) {
  const std::vector<e2e::Span>& spans = tr.log.spans();
  const std::vector<std::int64_t> self = e2e::self_times(spans);
  const auto span_ms = [&](const char* name) {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (std::string_view(spans[i].name) == name)
        v.push_back(static_cast<double>(self[i]) * 1e-6);
    return v;
  };

  std::vector<Metric> out;
  const std::vector<double> launches = span_ms("launch");
  out.push_back({"sched.launch_us", median(launches) * 1e3, "us", launches.size()});

  for (Mode m : {kP1, kPP}) {
    const std::string sfx = m == kP1 ? ".p1" : ".pP";
    std::vector<const ExecRecord*> runs;
    for (const ExecRecord& e : tr.execs)
      if (e.mode == m && !e.ideal) runs.push_back(&e);
    const std::size_t n = runs.size();
    const auto pool = [m](const Counters& c) -> const wlp::PoolStats& {
      return m == kP1 ? c.pool1 : c.poolP;
    };

    double launches_sum = 0, parks = 0, claims = 0, doall_started = 0;
    double steps = 0, trip = 0, started = 0, undone = 0;
    double arena = 0, slow = 0, bytes_peak = 0;
    std::vector<double> cp_ms, undo_ms, instr_ms;
    for (const ExecRecord* e : runs) {
      const Counters &c0 = e->before, &c1 = e->after;
      const wlp::ExecReport& r = e->report;
      launches_sum += static_cast<double>(
          (pool(c1).launches + pool(c1).inline_launches) -
          (pool(c0).launches + pool(c0).inline_launches));
      parks += static_cast<double>(pool(c1).park_wakeups - pool(c0).park_wakeups);
      claims += static_cast<double>(c1.doall_claims - c0.doall_claims);
      doall_started += static_cast<double>(c1.doall_started - c0.doall_started);
      steps += static_cast<double>(r.dispatcher_steps);
      trip += static_cast<double>(r.trip);
      started += static_cast<double>(r.started);
      undone += static_cast<double>(r.undone_writes);
      arena += static_cast<double>(c1.mem.arena_allocs - c0.mem.arena_allocs);
      slow += static_cast<double>(c1.mem.slow_allocs - c0.mem.slow_allocs);
      bytes_peak = std::max(bytes_peak, static_cast<double>(c1.mem.bytes_peak));
      // Induction-1 publishes Tb and Ta only as wlp.undo.* counters.
      const double cp = static_cast<double>(c1.checkpoint_ns - c0.checkpoint_ns) * 1e-6;
      const double ud = static_cast<double>(c1.restore_ns - c0.restore_ns) * 1e-6;
      cp_ms.push_back(cp);
      undo_ms.push_back(ud);
      instr_ms.push_back(spans[static_cast<std::size_t>(e->span)].ms() - cp - ud);
    }
    const std::vector<double> ideal = span_ms(m == kP1 ? "ideal.p1" : "ideal.pP");
    const double doall_ms = ideal.empty() ? 0.0 : median(ideal);
    const double per = n ? 1.0 / static_cast<double>(n) : 0.0;

    out.push_back({"sched.launches" + sfx, launches_sum * per, "count", n});
    out.push_back({"sched.parks" + sfx, parks * per, "count", n});
    out.push_back({"sched.claims_per_iter" + sfx, ratio(claims, doall_started), "ratio", n});
    out.push_back({"sched.doall_ms" + sfx, doall_ms, "ms", ideal.size()});
    out.push_back({"core.hops_per_iter" + sfx, ratio(steps, trip), "ratio", n});
    out.push_back({"core.useful_frac" + sfx, ratio(trip, started), "ratio", n});
    out.push_back({"core.checkpoint_ms" + sfx, median(cp_ms), "ms", n});
    out.push_back({"core.undo_ms" + sfx, median(undo_ms), "ms", n});
    // Td + overshoot needs the oracle's Tipar; without one it reads 0.
    out.push_back({"core.instr_ms" + sfx, ideal.empty() ? 0.0 : median(instr_ms) - doall_ms,
                   "ms", n});
    out.push_back({"core.undone_writes" + sfx, undone * per, "count", n});
    out.push_back({"mem.arena_allocs" + sfx, arena * per, "count", n});
    out.push_back({"mem.slow_allocs" + sfx, slow * per, "count", n});
    out.push_back({"mem.bytes_peak_mb" + sfx, bytes_peak / kMiB, "MiB", n});
  }

  const std::vector<double> seq = span_ms("seq");
  out.push_back({"workloads.seq_ms", median(seq), "ms", seq.size()});
  std::vector<double> in, pool, warm;
  for (const SetupTimes& s : setups) {
    in.push_back(s.inputs_s);
    pool.push_back(s.pool_s);
    warm.push_back(s.warmup_s);
  }
  out.push_back({"setup.inputs_s", median(in), "s", in.size()});
  out.push_back({"setup.pool_s", median(pool), "s", pool.size()});
  out.push_back({"setup.warmup_s", median(warm), "s", warm.size()});
  out.push_back({"obs.trace_overhead", ratio(traced_p50, untraced_p50), "x", 1});
  return out;
}

// ---- output -----------------------------------------------------------------

bool write_trace(const std::string& path, const Args& a, unsigned P, const Trace& tr) {
  std::ofstream os(path);
  if (!os) return false;
  wlp::JsonWriter w(os, false);
  const auto counters = [&](const Counters& c) {
    w.begin_object();
    w.kv("pool1.launches", c.pool1.launches + c.pool1.inline_launches);
    w.kv("poolP.launches", c.poolP.launches + c.poolP.inline_launches);
    w.kv("poolP.park_wakeups", c.poolP.park_wakeups);
    w.kv("wlp.doall.claims", c.doall_claims);
    w.kv("wlp.doall.started", c.doall_started);
    w.kv("wlp.undo.checkpoint_ns", c.checkpoint_ns);
    w.kv("wlp.undo.restore_ns", c.restore_ns);
    w.kv("mem.bytes_peak", c.mem.bytes_peak);
    w.kv("mem.arena_allocs", c.mem.arena_allocs);
    w.kv("mem.slow_allocs", c.mem.slow_allocs);
    w.end_object();
  };
  w.begin_object();
  w.kv("workload", a.workload);
  w.kv("seed", a.seed);
  w.kv("P", P);
  w.key("spans").begin_array();
  for (const e2e::Span& s : tr.log.spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("round", s.round);
    w.kv("parent", s.parent);
    w.kv("t0_ns", s.t0_ns);
    w.kv("t1_ns", s.t1_ns);
    w.end_object();
  }
  w.end_array();
  w.key("execs").begin_array();
  for (const ExecRecord& e : tr.execs) {
    w.begin_object();
    w.kv("span", e.span);
    w.key("before");
    counters(e.before);
    w.key("after");
    counters(e.after);
    w.kv("trip", e.report.trip);
    w.kv("started", e.report.started);
    w.kv("dispatcher_steps", e.report.dispatcher_steps);
    w.kv("undone_writes", e.report.undone_writes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return static_cast<bool>(os.flush());
}

void print_rows(const std::string& workload, const std::vector<Metric>& ms,
                const Tally& t) {
  std::printf("%-9s attempted=%ld failed=%ld", workload.c_str(), t.attempted, t.failed);
  for (const Metric& m : ms)
    std::printf("  %s=%.6g %s (n=%zu)", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  std::printf("\n");
}

std::string result_json(const std::vector<Metric>& ms, const Tally& t) {
  std::ostringstream os;
  wlp::JsonWriter w(os, false);
  w.begin_object();
  w.kv("correct", t.failed == 0);
  w.kv("attempted", t.attempted);
  w.kv("failed", t.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH]\n",
                 argv[0]);
    return 2;
  }
  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const unsigned nproc = host_cpus();
  const unsigned P = std::max(2u, nproc - 1);
  std::printf("# wlp e2e: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# host: nproc=%u P=%u build=%s thp=%s obs.tracer=%s obs.metrics=%s\n",
              nproc, P, E2E_BUILD_TYPE, thp_mode().c_str(),
              wlp::obs::Tracer::instance().enabled() ? "on" : "off",
              wlp::obs::metrics_enabled() ? "on" : "off");

  Tally tally;
  Bench bench;
  std::vector<SetupTimes> setups;
  try {
    if (!child_setups(kSetups - 1, args, P, setups, tally))
      throw std::runtime_error("a set-up in a child process did not finish");
    setups.push_back(set_up(bench, args, P, tally));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    if (!tally.first_failure.empty())
      std::fprintf(stderr, "first failure: %s\n", tally.first_failure.c_str());
    return 1;
  }
  for (const std::string& line : bench.loop->config_lines())
    std::printf("# config: %s\n", line.c_str());

  const CpuJiffies j0 = cpu_jiffies();
  const int rounds = measure(bench, args.seconds, 0, tally, nullptr);
  const CpuJiffies j1 = cpu_jiffies();
  std::vector<Metric> metrics = end_to_end(bench, setups);
  std::printf("# rounds=%d, %zu of them above the p90\n", rounds,
              e2e::count_above(bench.ms[kPP], metrics[1].value));
  // Neither number goes through the parallel runtime: they tell a run made
  // while the host was slow or busy from a regression.
  std::printf("# host while timed: sequential median %.4g ms, steal %.2f%% of vCPU time\n",
              median(bench.ms[kSeq]),
              100.0 * ratio(static_cast<double>(j1.steal - j0.steal),
                            static_cast<double>(j1.total - j0.total)));

  if (args.trace) {
    const double untraced_p50 = metrics[0].value;
    Trace trace;
    measure(bench, 0, rounds, tally, &trace);
    const double traced_p50 = e2e::quantile(bench.ms[kPP], 0.5);
    metrics = per_layer(trace, setups, traced_p50, untraced_p50);
    if (!write_trace(args.trace_file, args, P, trace)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_file.c_str());
      return 1;
    }
    std::printf("# trace: %zu spans, %zu executions -> %s\n", trace.log.spans().size(),
                trace.execs.size(), args.trace_file.c_str());
  }

  std::printf("# threads=%ld\n", proc_status("Threads"));
  if (!tally.first_failure.empty())
    std::printf("# first failure: %s\n", tally.first_failure.c_str());
  print_rows(args.workload, metrics, tally);
  std::printf("%s\n", result_json(metrics, tally).c_str());
  return tally.failed == 0 ? 0 : 1;
}
