// The paper's loops as the end-to-end benchmark drives them: each workload
// owns its inputs, its loop state and the sequential reference, resets the
// state in place, and checks every execution against that reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/sched/thread_pool.hpp"

namespace e2e {

class Loop {
 public:
  virtual ~Loop() = default;

  /// The resolved configuration, one line per config struct or generator.
  virtual std::vector<std::string> config_lines() const = 0;

  /// Put the loop state back to its pre-loop values without reallocating.
  virtual void reset() = 0;

  /// The loop's own sequential version.
  virtual void run_sequential() = 0;

  /// The measured parallel method on `pool`.
  virtual wlp::ExecReport run_parallel(wlp::ThreadPool& pool) = 0;

  /// The Fig. 7 oracle: trip count known, no checkpoint, no stamps.  Only
  /// called when has_ideal().
  virtual bool has_ideal() const { return false; }
  virtual void run_ideal(wlp::ThreadPool&) {}

  /// Empty when the state matches the sequential reference; otherwise what
  /// differs.
  virtual std::string check() const = 0;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string_view>& workload_names();

/// Build `workload` from `seed`; nullptr for an unknown name.  Seed 0 gives
/// the configurations the figure benches use.
std::unique_ptr<Loop> make_loop(std::string_view workload, std::uint64_t seed);

}  // namespace e2e
