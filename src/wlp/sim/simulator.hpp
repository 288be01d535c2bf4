// Discrete-event execution of the Section 3 methods on the simulated
// machine.  See machine.hpp for the model and DESIGN.md ("Substitutions")
// for why benchmark speedups come from here rather than from wall clocks.
#pragma once

#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/sim/machine.hpp"

namespace wlp::sim {

struct SimOptions {
  bool stamps = false;      ///< time-stamp writes (undo support)
  bool checkpoint = false;  ///< checkpoint before / restore overshoot after
  bool pd_test = false;     ///< shadow marking + post-execution analysis
  long strip = 0;           ///< strip length for strip-mined variants (0 = off)
  long window = 0;          ///< sliding-window size (0 = off)
};

struct SimResult {
  double time = 0;       ///< makespan including all overheads
  double t_before = 0;   ///< Tb: checkpoint
  double t_after = 0;    ///< Ta: undo + PD analysis
  long executed = 0;     ///< iteration bodies run
  long overshot = 0;     ///< bodies run at index >= trip
  double speedup = 0;    ///< sequential_time / time
};

class Simulator {
 public:
  explicit Simulator(MachineModel m = {}) : m_(m) {}

  const MachineModel& machine() const { return m_; }

  /// Sequential execution time of the loop (the speedup baseline).
  double sequential_time(const LoopProfile& lp) const;

  /// Run `method` on `p` processors.
  SimResult run(wlp::Method method, const LoopProfile& lp, unsigned p,
                const SimOptions& opts = {}) const;

  /// Speedups for each processor count in `ps`.
  std::vector<double> speedup_curve(wlp::Method method, const LoopProfile& lp,
                                    const std::vector<int>& ps,
                                    const SimOptions& opts = {}) const;

 private:
  double iteration_cost(const LoopProfile& lp, long i, const SimOptions& o) const;
  double overheads_before(const LoopProfile& lp, unsigned p, const SimOptions& o) const;
  double overheads_after(const LoopProfile& lp, unsigned p, const SimOptions& o,
                         long overshot_writes) const;

  SimResult sim_static_cyclic(const LoopProfile& lp, unsigned p,
                              const SimOptions& o) const;
  SimResult sim_assoc_prefix(const LoopProfile& lp, unsigned p,
                             const SimOptions& o) const;
  SimResult sim_wu_lewis_distribute(const LoopProfile& lp, unsigned p,
                                    const SimOptions& o) const;
  SimResult sim_wu_lewis_doacross(const LoopProfile& lp, unsigned p,
                                  const SimOptions& o) const;
  SimResult sim_strip_mined(const LoopProfile& lp, unsigned p,
                            const SimOptions& o) const;

  MachineModel m_;
};

}  // namespace wlp::sim
