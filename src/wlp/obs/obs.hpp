// wlp::obs — the observability subsystem's instrumentation surface.
//
// Everything the runtime's hot paths touch goes through the macros below.
// The hooks are always compiled in and switched at run time:
//   * tracing   — obs::Tracer::instance().set_enabled(true); default OFF.
//     A disabled trace hook costs one relaxed bool load.
//   * metrics   — obs::set_metrics_enabled(false); default ON.
//     An enabled metric hook costs one relaxed atomic add.
//
// Macro vocabulary (name arguments must be string literals).  A metric
// macro binds a function-local static to the registry entry its first
// call names, so a name chosen at run time would count every later call
// under the first one's name; the three metric macros paste "" before the
// name, which compiles only for a literal.
//   WLP_TRACE_SCOPE(name, a0, a1)    RAII span -> one Chrome 'X' event
//   WLP_TRACE_SCOPE_NAMED(var, ...)  same, but binds `var` so the span's
//                                    args can be updated before it closes
//   WLP_TRACE_INSTANT(name, a0, a1)  point event -> Chrome 'i'
//   WLP_TRACE_COUNTER(name, value)   sampled value -> Chrome 'C' track
//   WLP_OBS_COUNT(name, delta)       metrics counter add
//   WLP_OBS_GAUGE_SET(name, value)   metrics gauge store
//   WLP_OBS_HIST(name, value)        metrics histogram record
#pragma once

#include "wlp/obs/metrics.hpp"  // IWYU pragma: export
#include "wlp/obs/trace.hpp"    // IWYU pragma: export

#define WLP_OBS_CONCAT2(a, b) a##b
#define WLP_OBS_CONCAT(a, b) WLP_OBS_CONCAT2(a, b)

#define WLP_TRACE_SCOPE(name, a0, a1)                               \
  ::wlp::obs::ScopedTrace WLP_OBS_CONCAT(wlp_obs_scope_, __LINE__)( \
      name, static_cast<std::uint64_t>(a0), static_cast<std::uint64_t>(a1))

#define WLP_TRACE_SCOPE_NAMED(var, name, a0, a1)                        \
  ::wlp::obs::ScopedTrace var(name, static_cast<std::uint64_t>(a0),     \
                              static_cast<std::uint64_t>(a1))

#define WLP_TRACE_INSTANT(name, a0, a1)                                 \
  ::wlp::obs::trace_instant(name, static_cast<std::uint64_t>(a0),       \
                            static_cast<std::uint64_t>(a1))

#define WLP_TRACE_COUNTER(name, value) \
  ::wlp::obs::trace_counter(name, static_cast<std::uint64_t>(value))

#define WLP_OBS_COUNT(name, delta)                                         \
  do {                                                                     \
    if (::wlp::obs::metrics_enabled()) {                                   \
      static ::wlp::obs::Counter& wlp_obs_c =                              \
          ::wlp::obs::Registry::instance().counter("" name);               \
      wlp_obs_c.add(static_cast<std::uint64_t>(delta));                    \
    }                                                                      \
  } while (0)

#define WLP_OBS_GAUGE_SET(name, value)                                     \
  do {                                                                     \
    if (::wlp::obs::metrics_enabled()) {                                   \
      static ::wlp::obs::Gauge& wlp_obs_g =                                \
          ::wlp::obs::Registry::instance().gauge("" name);                 \
      wlp_obs_g.set(static_cast<std::int64_t>(value));                     \
    }                                                                      \
  } while (0)

#define WLP_OBS_HIST(name, value)                                          \
  do {                                                                     \
    if (::wlp::obs::metrics_enabled()) {                                   \
      static ::wlp::obs::Histogram& wlp_obs_h =                            \
          ::wlp::obs::Registry::instance().histogram("" name);             \
      wlp_obs_h.record(static_cast<std::uint64_t>(value));                 \
    }                                                                      \
  } while (0)
