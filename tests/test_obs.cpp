// wlp::obs — trace ring, tracer, metrics registry, and Chrome export.
//
// Every suite here is named Obs* so the TSan CI job can select the whole
// subsystem with a single `:Obs*` filter term.  The export-validity tests
// parse the emitted JSON with a small recursive-descent checker rather than
// eyeballing substrings: a trace that chrome://tracing would reject must
// fail here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "wlp/core/speculative.hpp"
#include "wlp/core/strategies.hpp"
#include "wlp/mem/arena.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace wlp {
namespace {

using obs::TraceEvent;
using obs::TraceRing;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Minimal JSON validity checker.  Parses the full grammar (objects, arrays,
// strings with escapes, numbers, literals), records the string value of
// every "name" and "ph" member, and notes whether a "traceEvents" member
// mapped to an array.  parse() is true only if the whole input is one valid
// JSON value.
class JsonCheck {
 public:
  explicit JsonCheck(std::string s) : storage_(std::move(s)), s_(storage_) {}

  bool parse() {
    skip_ws();
    const bool ok = value();
    skip_ws();
    return ok && pos_ == s_.size();
  }

  bool saw_trace_events() const { return saw_trace_events_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<std::string>& phs() const { return phs_; }

  bool has_name(std::string_view n) const {
    for (const std::string& s : names_)
      if (s == n) return true;
    return false;
  }
  std::size_t count_name(std::string_view n) const {
    std::size_t k = 0;
    for (const std::string& s : names_)
      if (s == n) ++k;
    return k;
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        std::string ignored;
        return string(&ignored);
      }
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (peek() == '"') {
        std::string v;
        if (!string(&v)) return false;
        if (key == "name") names_.push_back(std::move(v));
        else if (key == "ph") phs_.push_back(std::move(v));
      } else {
        if (key == "traceEvents") {
          if (peek() != '[') return false;  // must map to an array
          saw_trace_events_ = true;
        }
        if (!value()) return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string(std::string* out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          pos_ += 4;
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
        out->push_back(e);
        ++pos_;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool digits = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    return digits && pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string storage_;
  std::string_view s_;
  std::size_t pos_ = 0;
  bool saw_trace_events_ = false;
  std::vector<std::string> names_;
  std::vector<std::string> phs_;
};

/// Export the process tracer's buffer to a string (quiescent-point only).
std::string export_to_string() {
  std::ostringstream os;
  Tracer::instance().export_chrome(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// TraceRing

TEST(ObsTraceRing, HoldsEverythingBelowCapacity) {
  TraceRing ring(/*tid=*/0, /*capacity_pow2=*/8);
  for (std::uint64_t i = 0; i < 5; ++i)
    ring.emit({"e", /*start=*/100 + i, 0, i, 0, 'i'});
  EXPECT_EQ(ring.emitted(), 5u);
  const std::vector<TraceEvent> got = ring.snapshot();
  ASSERT_EQ(got.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i].arg0, i) << "oldest first";
    EXPECT_EQ(got[i].start, 100 + i);
  }
}

TEST(ObsTraceRing, WraparoundKeepsNewestAndExactCount) {
  TraceRing ring(0, 8);
  for (std::uint64_t i = 0; i < 21; ++i) ring.emit({"e", i, 0, i, 0, 'i'});
  // The head counts every emission ever; the ring holds the last 8.
  EXPECT_EQ(ring.emitted(), 21u);
  const std::vector<TraceEvent> got = ring.snapshot();
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_EQ(got[k].arg0, 13 + k) << "events 13..20, oldest first";
}

TEST(ObsTraceRing, ClearDropsContentsAndCount) {
  TraceRing ring(0, 8);
  for (int i = 0; i < 3; ++i) ring.emit({"e", 0, 0, 0, 0, 'i'});
  ring.clear();
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.capacity(), 8u);
}

// ---------------------------------------------------------------------------
// Tracer (process singleton; every test restores disabled+clear)

TEST(ObsTracer, DisabledEmitsNothing) {
  Tracer& t = Tracer::instance();
  t.set_enabled(false);
  t.clear();
  const std::uint64_t before = t.emitted();
  obs::trace_instant("obs.test.never", 1, 2);
  obs::trace_counter("obs.test.never", 3);
  { obs::ScopedTrace span("obs.test.never"); }
  EXPECT_EQ(t.emitted(), before);
}

TEST(ObsTracer, RuntimeToggleTakesEffectImmediately) {
  Tracer& t = Tracer::instance();
  t.clear();
  t.set_enabled(true);
  obs::trace_instant("obs.test.on", 0, 0);
  t.set_enabled(false);
  obs::trace_instant("obs.test.off", 0, 0);
  const std::vector<TraceEvent> got = t.snapshot_events();
  std::size_t on = 0, off = 0;
  for (const TraceEvent& e : got) {
    if (std::strcmp(e.name, "obs.test.on") == 0) ++on;
    if (std::strcmp(e.name, "obs.test.off") == 0) ++off;
  }
  EXPECT_EQ(on, 1u);
  EXPECT_EQ(off, 0u);
  t.clear();
}

TEST(ObsTracer, SpanStraddlingDisableIsDropped) {
  Tracer& t = Tracer::instance();
  t.clear();
  const std::uint64_t before = t.emitted();
  t.set_enabled(true);
  {
    obs::ScopedTrace span("obs.test.straddle");
    t.set_enabled(false);
  }  // closes with tracing off -> dropped, not half-recorded
  EXPECT_EQ(t.emitted(), before);
  t.clear();
}

TEST(ObsTracer, ConcurrentEmissionFromPoolHelpers) {
  Tracer& t = Tracer::instance();
  t.clear();
  t.set_enabled(true);
  constexpr unsigned kP = 4;
  constexpr std::uint64_t kPerWorker = 100;
  std::atomic<long> ran{0};
  {
    ThreadPool pool(kP);
    pool.parallel([&](unsigned vpn) {
      for (std::uint64_t i = 0; i < kPerWorker; ++i)
        obs::trace_instant("obs.test.worker", i, vpn);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    // The pool join above is the quiescent point: its release/acquire chain
    // publishes every helper's ring contents to this thread.
    t.set_enabled(false);
    EXPECT_EQ(ran.load(), static_cast<long>(kP));
    const std::vector<TraceEvent> got = t.snapshot_events();
    std::uint64_t mine = 0;
    std::uint64_t vpn_seen[kP] = {};
    for (const TraceEvent& e : got) {
      if (std::strcmp(e.name, "obs.test.worker") != 0) continue;
      ++mine;
      ASSERT_LT(e.arg1, kP);
      ++vpn_seen[e.arg1];
    }
    EXPECT_EQ(mine, kP * kPerWorker);
    for (unsigned v = 0; v < kP; ++v)
      EXPECT_EQ(vpn_seen[v], kPerWorker) << "vpn " << v;
  }
  t.clear();
}

TEST(ObsTracer, DroppedCountsRingOverflow) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.set_ring_capacity(8);  // applies to rings created from here on
  const std::uint64_t dropped_before = t.dropped();
  std::thread emitter([&] {
    for (int i = 0; i < 20; ++i) obs::trace_instant("obs.test.drop", i, 0);
  });
  emitter.join();
  t.set_enabled(false);
  EXPECT_EQ(t.dropped() - dropped_before, 12u) << "20 emitted into capacity 8";
  t.set_ring_capacity(1 << 13);  // restore the default for later tests
  t.clear();
}

// ---------------------------------------------------------------------------
// Chrome export

TEST(ObsExport, EmptyTraceIsValidJson) {
  Tracer& t = Tracer::instance();
  t.set_enabled(false);
  t.clear();
  JsonCheck check(export_to_string());
  EXPECT_TRUE(check.parse());
  EXPECT_TRUE(check.saw_trace_events());
}

TEST(ObsExport, AllPhaseKindsRoundTrip) {
  Tracer& t = Tracer::instance();
  t.clear();
  t.set_enabled(true);
  obs::trace_instant("obs.test.i", 7, 8);
  obs::trace_counter("obs.test.c", 42);
  { obs::ScopedTrace span("obs.test.x", 1, 2); }
  t.set_enabled(false);

  JsonCheck check(export_to_string());
  ASSERT_TRUE(check.parse());
  EXPECT_TRUE(check.saw_trace_events());
  EXPECT_TRUE(check.has_name("obs.test.i"));
  EXPECT_TRUE(check.has_name("obs.test.c"));
  EXPECT_TRUE(check.has_name("obs.test.x"));
  for (const std::string& ph : check.phs())
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C") << "ph=" << ph;
  t.clear();
}

// A real speculative run traced end to end must yield a loadable file whose
// timeline shows the fork-join launches, the scheduler claims, and the undo
// span — the ISSUE's acceptance criterion for the subsystem.
TEST(ObsExport, SpeculativeRunContainsForkJoinClaimAndUndo) {
  Tracer& t = Tracer::instance();
  t.clear();
  t.set_enabled(true);

  const long n = 600, exit_at = 400;
  ThreadPool pool(4);
  // Reversal is a permutation: accesses are independent, the PD test
  // passes, and overshoot past exit_at is undone via the time-stamps.
  SpecArray<double> arr(std::vector<double>(static_cast<std::size_t>(n), 0.0),
                        pool.size(), /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};
  const ExecReport r = speculative_while(
      pool, n, std::span<SpecTarget* const>(targets, 1),
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        const auto slot = static_cast<std::size_t>(n - 1 - i);
        // Write before testing the exit so the exit-discovering iteration
        // dirties the array and the undo span carries a real write count.
        arr.set(vpn, i, slot, arr.get(vpn, slot) + 1.0);
        return i >= exit_at ? IterAction::kExit : IterAction::kContinue;
      },
      [&] {
        for (long i = 0; i < exit_at; ++i)
          arr.data()[static_cast<std::size_t>(n - 1 - i)] += 1.0;
        return exit_at;
      });
  t.set_enabled(false);

  ASSERT_TRUE(r.pd_passed);
  ASSERT_EQ(r.trip, exit_at);
  ASSERT_GT(r.undone_writes, 0) << "the undo machinery must have fired";

  JsonCheck check(export_to_string());
  ASSERT_TRUE(check.parse());
  EXPECT_TRUE(check.saw_trace_events());
  EXPECT_GE(check.count_name("forkjoin") + check.count_name("forkjoin.inline"),
            1u);
  EXPECT_GE(check.count_name("claim"), 1u)
      << "scheduler chunk claims must appear on the timeline";
  EXPECT_GE(check.count_name("undo"), 1u);
  t.clear();
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ObsMetrics, CounterAddAndReset) {
  obs::Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(-5);
  g.add(15);
  EXPECT_EQ(g.value(), 10);
}

TEST(ObsMetrics, HistogramLog2Buckets) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11);
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(11), 2047u);

  obs::Histogram h;
  h.record(0);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1003u);
  EXPECT_DOUBLE_EQ(h.mean(), 1003.0 / 3.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
}

TEST(ObsMetrics, HistogramQuantileBounds) {
  obs::Histogram h;
  for (int i = 0; i < 98; ++i) h.record(10);    // bucket 4, bound 15
  for (int i = 0; i < 2; ++i) h.record(5000);   // bucket 13, bound 8191
  EXPECT_EQ(h.quantile_bound(0.50), 15u);
  EXPECT_EQ(h.quantile_bound(0.99), 8191u);
  obs::Histogram empty;
  EXPECT_EQ(empty.quantile_bound(0.5), 0u);
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("wlp.test.obs.stable");
  obs::Counter& b = reg.counter("wlp.test.obs.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsMetrics, SnapshotContainsAllKinds) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("wlp.test.obs.snap_c").add(7);
  reg.gauge("wlp.test.obs.snap_g").set(-2);
  reg.histogram("wlp.test.obs.snap_h").record(100);

  const obs::Snapshot snap = reg.snapshot();
  bool c = false, g = false, h = false;
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LE(snap[i - 1].name, snap[i].name) << "sorted by name";
  for (const obs::MetricSample& s : snap) {
    if (s.name == "wlp.test.obs.snap_c") {
      c = true;
      EXPECT_EQ(s.kind, obs::MetricSample::Kind::kCounter);
      EXPECT_GE(s.value, 7);
    } else if (s.name == "wlp.test.obs.snap_g") {
      g = true;
      EXPECT_EQ(s.kind, obs::MetricSample::Kind::kGauge);
      EXPECT_EQ(s.value, -2);
    } else if (s.name == "wlp.test.obs.snap_h") {
      h = true;
      EXPECT_EQ(s.kind, obs::MetricSample::Kind::kHistogram);
      EXPECT_GE(s.value, 1);
      EXPECT_GE(s.sum, 100u);
    }
  }
  EXPECT_TRUE(c);
  EXPECT_TRUE(g);
  EXPECT_TRUE(h);
}

TEST(ObsMetrics, ProviderMergesWithOwnedCounter) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& owned = reg.counter("wlp.test.obs.merge");
  const std::uint64_t base = owned.value();
  owned.add(10);
  // A live provider contributing the same name: the snapshot must read as
  // one merged figure (owned folded totals + live view), like a running
  // ThreadPool's stats on top of dead pools' folded counters.
  const int id = reg.add_provider([](obs::Snapshot& out) {
    obs::MetricSample s;
    s.name = "wlp.test.obs.merge";
    s.kind = obs::MetricSample::Kind::kCounter;
    s.value = 5;
    out.push_back(s);
  });
  std::size_t occurrences = 0;
  for (const obs::MetricSample& s : reg.snapshot()) {
    if (s.name != "wlp.test.obs.merge") continue;
    ++occurrences;
    EXPECT_EQ(s.value, static_cast<std::int64_t>(base) + 15);
  }
  EXPECT_EQ(occurrences, 1u) << "same-name samples merge into one";

  reg.remove_provider(id);
  occurrences = 0;
  for (const obs::MetricSample& s : reg.snapshot())
    if (s.name == "wlp.test.obs.merge") ++occurrences;
  EXPECT_EQ(occurrences, 1u) << "owned metric remains after provider leaves";
}

// The runtime's two live providers: a ThreadPool publishes `wlp.pool.*`
// while it lives and folds its totals into owned counters when it dies;
// the process Budget publishes `wlp.mem.*` for the life of the process.
TEST(ObsMetrics, PoolAndBudgetProvidersPublishLiveTotals) {
  auto read = [](std::string_view name) {
    for (const obs::MetricSample& s : obs::Registry::instance().snapshot())
      if (s.name == name) return s.value;
    return std::int64_t{0};
  };
  const std::int64_t launches0 = read("wlp.pool.launches");
  {
    ThreadPool pool(2);
    for (int k = 0; k < 5; ++k) pool.parallel([](unsigned) {});
    EXPECT_EQ(read("wlp.pool.launches") - launches0, 5) << "live provider";
  }
  EXPECT_EQ(read("wlp.pool.launches") - launches0, 5)
      << "the dead pool's total is folded into the owned counter";

  const std::int64_t allocs0 = read("wlp.mem.arena_allocs");
  mem::Arena& arena = mem::process_arena();
  void* p = arena.allocate(256);
  EXPECT_EQ(read("wlp.mem.arena_allocs") - allocs0, 1);
  arena.deallocate(p, 256);
}

TEST(ObsMetrics, RuntimeToggleGatesTheMacros) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("wlp.test.obs.toggle");
  const std::uint64_t base = c.value();
  obs::set_metrics_enabled(false);
  WLP_OBS_COUNT("wlp.test.obs.toggle", 1);
  EXPECT_EQ(c.value(), base);
  obs::set_metrics_enabled(true);
  WLP_OBS_COUNT("wlp.test.obs.toggle", 1);
  EXPECT_EQ(c.value(), base + 1);
}

TEST(ObsMetrics, WriteJsonIsValid) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("wlp.test.obs.json").add();
  reg.histogram("wlp.test.obs.json_h").record(64);
  std::ostringstream os;
  reg.write_json(os);
  JsonCheck check(os.str());
  ASSERT_TRUE(check.parse());
  EXPECT_TRUE(check.has_name("wlp.test.obs.json"));
  EXPECT_TRUE(check.has_name("wlp.test.obs.json_h"));
}

// Counters a run-time verdict picks: each call site names one literal, so
// a verdict counts under its own name whatever the first call was.
TEST(ObsMetrics, VerdictCountersCountEachVerdictOnce) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& pass = reg.counter("wlp.spec.pd_pass");
  obs::Counter& fail = reg.counter("wlp.spec.pd_fail");
  const std::uint64_t pass0 = pass.value(), fail0 = fail.value();

  // One worker, so the dependent round's accesses never race.
  ThreadPool pool(1);
  const long n = 64;
  SpecArray<double> arr(std::vector<double>(n + 1, 0.0), pool.size(),
                        /*run_pd_test=*/true);
  SpecTarget* targets[] = {&arr};
  const std::span<SpecTarget* const> ts(targets, 1);
  const ExecReport ok = speculative_while(
      pool, n, ts,
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        arr.set(vpn, i, static_cast<std::size_t>(i), 1.0);
        return IterAction::kContinue;
      },
      [&] { return n; });
  // a[i] = a[i + 1]: iteration i reads what iteration i + 1 writes.
  const ExecReport bad = speculative_while(
      pool, n, ts,
      [&](long i, unsigned vpn) {
        arr.begin_iteration(vpn, i);
        const double next = arr.get(vpn, static_cast<std::size_t>(i + 1));
        arr.set(vpn, i, static_cast<std::size_t>(i), next);
        return IterAction::kContinue;
      },
      [&] { return n; });
  ASSERT_TRUE(ok.pd_passed);
  ASSERT_FALSE(bad.pd_passed);
  EXPECT_EQ(pass.value() - pass0, 1u);
  EXPECT_EQ(fail.value() - fail0, 1u);

  obs::Counter& par = reg.counter("wlp.hedge.parallel_won");
  obs::Counter& seq = reg.counter("wlp.hedge.sequential_won");
  const std::uint64_t par0 = par.value(), seq0 = seq.value();
  // Both calls run one instantiation, so one call site serves both.
  bool reexecuted = false;
  auto run_parallel = [&] {
    ExecReport r;
    r.reexecuted_sequentially = reexecuted;
    return r;
  };
  auto run_sequential = [] { return 1L; };
  one_processor_hedge(run_parallel, run_sequential);
  reexecuted = true;
  one_processor_hedge(run_parallel, run_sequential);
  EXPECT_EQ(par.value() - par0, 1u);
  EXPECT_EQ(seq.value() - seq0, 1u);
}

// With the PD test off there are no marks to rewind: a reset is counted
// only by a target that keeps them.
TEST(ObsMetrics, PdResetsCountOnlyWithTheTestOn) {
  obs::Counter& resets = obs::Registry::instance().counter("wlp.pd.resets");
  SpecArray<double> off(std::vector<double>(16, 0.0), 2, /*run_pd_test=*/false);
  SpecArray<double> on(std::vector<double>(16, 0.0), 2, /*run_pd_test=*/true);
  const std::uint64_t r0 = resets.value();
  for (int k = 0; k < 5; ++k) off.reset_marks();
  EXPECT_EQ(resets.value() - r0, 0u);
  for (int k = 0; k < 5; ++k) on.reset_marks();
  EXPECT_EQ(resets.value() - r0, 5u);
}

// ---------------------------------------------------------------------------
// Registry reset

TEST(ObsMetrics, ResetZeroesOwnedMetrics) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("wlp.test.obs.reset");
  obs::Histogram& h = reg.histogram("wlp.test.obs.reset_h");
  c.add(9);
  h.record(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace wlp
