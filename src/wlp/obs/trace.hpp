// Per-thread lock-free event tracer with Chrome trace-event JSON export.
//
// Every thread that emits gets its own fixed-size ring of POD event slots,
// registered once (mutex-guarded) and thereafter written with plain stores
// plus one release store of the head counter — no CAS, no sharing, no
// allocation on the emit path.  The head counts *all* events ever emitted,
// so wraparound loses the oldest events but never corrupts the ring or the
// count: an exporter sees exactly the last min(head, capacity) events per
// thread plus an accurate dropped-event tally.
//
// Timestamps are raw TSC-class ticks (rdtsc / cntvct_el0; steady_clock
// nanoseconds elsewhere) converted to microseconds at export time against a
// (ticks, wall) anchor pair sampled when the tracer is constructed and again
// at export — emitting never pays a clock_gettime.
//
// Export produces the Chrome trace-event format (the JSON object form with
// a "traceEvents" array), loadable in chrome://tracing and Perfetto:
// complete events ("ph":"X") for scoped spans, instant events ("ph":"i")
// for point occurrences, counter events ("ph":"C") for sampled values.
// Rings outlive their threads (the registry owns them), so exporting after
// a ThreadPool join sees every helper's events; the join's release/acquire
// chain is what publishes the helpers' slots, hence the documented rule:
// EXPORT AND CLEAR ONLY AT QUIESCENT POINTS (no concurrent emission).
//
// Emission is runtime-toggleable (off by default: one relaxed bool load per
// skipped event).  The runtime's call sites go through the macros in
// obs.hpp; tools and tests may drive the ring directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace wlp::obs {

/// Raw timestamp ticks.  Monotonic, thread-consistent on the hosts we care
/// about (invariant TSC / generic timer); calibrated to wall time at export.
inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// One fixed-size trace slot.  `name` must be a string with static storage
/// duration (a literal at the instrumentation site) — slots store the
/// pointer, never the bytes.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start = 0;  ///< ticks
  std::uint64_t dur = 0;    ///< ticks; 0 for instant/counter events
  std::uint64_t arg0 = 0;   ///< event-specific (epoch, iteration, base, ...)
  std::uint64_t arg1 = 0;   ///< event-specific (vpn, take, count, ...)
  char ph = 'i';            ///< 'X' complete, 'i' instant, 'C' counter
};

/// Single-writer ring.  The owning thread emits; any thread may read at a
/// quiescent point (see file comment).
class TraceRing {
 public:
  TraceRing(std::uint32_t tid, std::size_t capacity_pow2)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1), tid_(tid) {}

  void emit(const TraceEvent& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & mask_] = e;
    // Release: an exporter that acquires `head_` sees the slot contents.
    head_.store(h + 1, std::memory_order_release);
  }

  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const noexcept { return slots_.size(); }
  std::uint32_t tid() const noexcept { return tid_; }

  /// Events currently held (oldest first).  Quiescent-point only.
  std::vector<TraceEvent> snapshot() const;

  void clear() noexcept { head_.store(0, std::memory_order_release); }

 private:
  std::vector<TraceEvent> slots_;
  std::uint64_t mask_;
  std::uint32_t tid_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

/// Process-wide tracer: owns every thread's ring, the enable flag, and the
/// tick->wall calibration.  Access through Tracer::instance().
class Tracer {
 public:
  static Tracer& instance();

  /// Runtime toggle.  Off by default; flipping it on/off at any time is
  /// safe (emitters race benignly on the boundary events).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// This thread's ring, created and registered on first use.
  TraceRing& ring();

  /// Capacity (events, rounded up to a power of two) for rings created
  /// *after* this call.  Existing rings keep their size.
  void set_ring_capacity(std::size_t events);

  /// Sum of events that fell off the back of any ring.
  std::uint64_t dropped() const;
  /// Sum of events ever emitted across all rings.
  std::uint64_t emitted() const;

  /// Reset every ring's contents (quiescent-point only).
  void clear();

  /// Write the Chrome trace-event JSON object ({"traceEvents": [...]}) for
  /// everything currently buffered.  Quiescent-point only.
  void export_chrome(std::ostream& os) const;
  /// Convenience: export to a file.  Returns false if the file can't open.
  bool write_chrome(const std::string& path) const;

  /// All buffered events across all rings (oldest first per ring), for
  /// tests and programmatic consumers.  Quiescent-point only.
  std::vector<TraceEvent> snapshot_events() const;

  /// Nanoseconds per tick measured against the anchor (export-time helper,
  /// exposed for benchmarks that want to convert tick deltas themselves).
  double ns_per_tick() const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< guards rings_ registration and capacity_
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::size_t capacity_ = 1 << 13;  ///< 8192 events/thread by default

  std::uint64_t anchor_ticks_ = 0;  ///< tick/wall pair at construction
  std::uint64_t anchor_ns_ = 0;
};

/// Hot-path helpers --------------------------------------------------------

inline bool trace_enabled() noexcept { return Tracer::instance().enabled(); }

inline void trace_instant(const char* name, std::uint64_t a0 = 0,
                          std::uint64_t a1 = 0) noexcept {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  t.ring().emit({name, ticks(), 0, a0, a1, 'i'});
}

inline void trace_counter(const char* name, std::uint64_t value) noexcept {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  t.ring().emit({name, ticks(), 0, value, 0, 'C'});
}

inline void trace_complete(const char* name, std::uint64_t start_ticks,
                           std::uint64_t a0 = 0, std::uint64_t a1 = 0) noexcept {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  const std::uint64_t now = ticks();
  t.ring().emit(
      {name, start_ticks, now > start_ticks ? now - start_ticks : 0, a0, a1, 'X'});
}

/// RAII span: records the start tick if tracing is on at construction and
/// emits one complete event at destruction (still checking the toggle, so a
/// span that straddles a disable is simply dropped).  Arguments may be
/// updated mid-scope via args() — e.g. an undo span that learns its write
/// count at the end.
class ScopedTrace {
 public:
  ScopedTrace(const char* name, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0) noexcept
      : name_(name), a0_(a0), a1_(a1), live_(trace_enabled()) {
    if (live_) start_ = ticks();
  }
  ~ScopedTrace() {
    if (live_) trace_complete(name_, start_, a0_, a1_);
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  void args(std::uint64_t a0, std::uint64_t a1) noexcept {
    a0_ = a0;
    a1_ = a1;
  }

 private:
  const char* name_;
  std::uint64_t a0_, a1_;
  std::uint64_t start_ = 0;
  bool live_;
};

}  // namespace wlp::obs
