#include "wlp/analysis/execute_plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>

#include "wlp/core/cost_model.hpp"
#include "wlp/core/shadow.hpp"
#include "wlp/core/sliding_window.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doacross.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/sched/parallel_prefix.hpp"
#include "wlp/sched/reduce.hpp"
#include "wlp/support/cacheline.hpp"
#include "wlp/support/prng.hpp"

namespace wlp::ir {

namespace {

struct FiredExit {
  int stmt;
  long iter;
};

/// Iterations statement `s` may validly execute (same rule as the
/// distributed interpreter): statements textually before an exit run
/// through its firing iteration inclusive.
long stmt_limit(int s, long max_iters, const std::vector<FiredExit>& fired) {
  long lim = max_iters;
  for (const FiredExit& e : fired)
    lim = std::min(lim, e.iter + (s < e.stmt ? 1 : 0));
  return lim;
}

struct LoggedWrite {
  long iter;
  int stmt;
  const std::string* array;  // interned: points into the loop's name set
  long idx;
  double value;
  double old;   ///< value the store displaced (write-log undo for
                ///< arrays that skipped the entry snapshot)
  long ticket;  ///< global store order, claimed under the striped lock
};

/// Striped spin locks guarding concurrent stores into the working arrays
/// (only unknown-access blocks can race; analyzed-parallel blocks write
/// disjoint elements by construction, but the locks make even failing
/// speculative runs well defined).
class StripedLocks {
 public:
  void lock(std::size_t idx) noexcept {
    auto& f = locks_[mix64(idx) & (kStripes - 1)];
    while (f.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock(std::size_t idx) noexcept {
    locks_[mix64(idx) & (kStripes - 1)].clear(std::memory_order_release);
  }

 private:
  static constexpr std::size_t kStripes = 256;
  std::array<std::atomic_flag, kStripes> locks_{};
};

/// Everything one plan execution needs.
struct ExecState {
  const Loop* loop;
  const ParallelPlan* plan;
  Env* env;
  ThreadPool* pool;

  std::map<std::string, int> def_of;             // scalar -> defining stmt
  std::vector<int> step_of;                      // stmt -> plan step index
  std::map<std::string, std::vector<double>> expansion;
  std::map<std::string, double> entry_scalars;
  std::map<std::string, std::vector<double>> entry_arrays;

  std::mutex fired_mu;
  std::vector<FiredExit> fired;

  std::vector<Padded<std::vector<LoggedWrite>>> logs;  // per worker
  StripedLocks store_locks;
  /// Store tickets: per location, lock order == ticket order, so replaying
  /// the logged `old` values in descending ticket order reconstructs the
  /// exact pre-loop state without a snapshot.
  std::atomic<long> ticket{0};

  // PD marks for the plan's unknown-access arrays.  Every parallel block
  // restarts its iterations at 0, and a mark log needs increasing
  // iterations, so each (parallel block, worker) pair marks as its own
  // stream: mark_base + vpn, with mark_base = -1 outside parallel blocks.
  std::map<std::string, PDMarks> marks;
  long mark_base = -1;

  long limit_now(int s) const {
    return stmt_limit(s, loop->max_iters, fired);
  }

  void fire(int s, long i) {
    std::lock_guard lock(fired_mu);
    fired.push_back({s, i});
  }
};

/// Expression evaluation with plan-aware scalar resolution.
/// `step` = plan step being executed; `at_stmt` = consuming statement;
/// `vpn` = worker (for PD read marks inside a parallel block); `live` =
/// null for a parallel block, whose same-block scalar reads resolve through
/// the expansion (per-iteration) instead of a live value.
double evalx(ExecState& st, const ExprPtr& e, int step, int at_stmt, long i,
             unsigned vpn, const std::map<std::string, double>* live) {
  switch (e->kind) {
    case ExprKind::kConst:
      return e->value;
    case ExprKind::kIndex:
      return static_cast<double>(i);
    case ExprKind::kScalar: {
      const auto dit = st.def_of.find(e->name);
      if (dit == st.def_of.end()) {
        const auto sit = st.env->scalars.find(e->name);
        if (sit == st.env->scalars.end())
          throw std::runtime_error("plan-exec: undefined scalar " + e->name);
        return sit->second;  // loop invariant
      }
      const int def_stmt = dit->second;
      const int def_step = st.step_of[static_cast<std::size_t>(def_stmt)];
      if (def_step == step && live != nullptr) return live->at(e->name);
      // Same parallel block (def before use) or an earlier block: read the
      // expansion, shifted when the def is textually after the use.
      const long src = def_stmt < at_stmt ? i : i - 1;
      if (src < 0) {
        const auto sit = st.entry_scalars.find(e->name);
        return sit != st.entry_scalars.end()
                   ? sit->second
                   : std::numeric_limits<double>::quiet_NaN();
      }
      if (def_step > step)
        throw std::runtime_error("plan-exec: use before producing block for " +
                                 e->name);
      return st.expansion.at(e->name)[static_cast<std::size_t>(src)];
    }
    case ExprKind::kArray: {
      const auto it = st.env->arrays.find(e->name);
      if (it == st.env->arrays.end())
        throw std::runtime_error("plan-exec: undefined array " + e->name);
      const auto idx =
          static_cast<long>(evalx(st, e->a, step, at_stmt, i, vpn, live));
      if (idx < 0 || idx >= static_cast<long>(it->second.size()))
        throw std::runtime_error("plan-exec: " + e->name + " out of range");
      if (st.mark_base >= 0) {
        const auto mit = st.marks.find(e->name);
        if (mit != st.marks.end())
          mit->second.on_read(static_cast<unsigned>(st.mark_base) + vpn,
                              static_cast<std::size_t>(idx));
      }
      return it->second[static_cast<std::size_t>(idx)];
    }
    case ExprKind::kBinary: {
      const double l = evalx(st, e->a, step, at_stmt, i, vpn, live);
      const double r = evalx(st, e->b, step, at_stmt, i, vpn, live);
      switch (e->op) {
        case '+': return l + r;
        case '-': return l - r;
        case '*': return l * r;
        case '/': return l / r;
        case '<': return l < r ? 1.0 : 0.0;
        case '>': return l > r ? 1.0 : 0.0;
        case 'L': return l <= r ? 1.0 : 0.0;
        case 'G': return l >= r ? 1.0 : 0.0;
        case '=': return l == r ? 1.0 : 0.0;
        case '!': return l != r ? 1.0 : 0.0;
        default: throw std::runtime_error("plan-exec: bad operator");
      }
    }
    case ExprKind::kCall: {
      const auto it = st.env->funcs.find(e->name);
      if (it == st.env->funcs.end())
        throw std::runtime_error("plan-exec: undefined function " + e->name);
      return it->second(evalx(st, e->a, step, at_stmt, i, vpn, live));
    }
  }
  throw std::runtime_error("plan-exec: bad expression");
}

/// One statement of a per-iteration execution (parallel or sequential
/// block).  Returns true if an exit fired at this statement.
bool execute_stmt(ExecState& st, int step, int s, long i, unsigned vpn,
                  std::map<std::string, double>* live) {
  const Stmt& stmt = st.loop->body[static_cast<std::size_t>(s)];
  if (stmt.guard && evalx(st, stmt.guard, step, s, i, vpn, live) == 0.0) {
    // Conditional scalar defs carry the previous value forward (guarded
    // scalars are self-dependent, so they always execute with `live`).
    if (stmt.kind == StmtKind::kAssignScalar)
      st.expansion.at(stmt.lhs)[static_cast<std::size_t>(i)] = live->at(stmt.lhs);
    return false;
  }
  switch (stmt.kind) {
    case StmtKind::kExitIf:
      if (evalx(st, stmt.rhs, step, s, i, vpn, live) != 0.0) {
        st.fire(s, i);
        return true;
      }
      return false;
    case StmtKind::kAssignScalar: {
      const double v = evalx(st, stmt.rhs, step, s, i, vpn, live);
      if (live) (*live)[stmt.lhs] = v;
      st.expansion.at(stmt.lhs)[static_cast<std::size_t>(i)] = v;
      return false;
    }
    case StmtKind::kAssignArray: {
      const auto idx =
          static_cast<long>(evalx(st, stmt.subscript, step, s, i, vpn, live));
      auto& arr = st.env->arrays.at(stmt.lhs);
      if (idx < 0 || idx >= static_cast<long>(arr.size()))
        throw std::runtime_error("plan-exec: store out of range");
      const double v = evalx(st, stmt.rhs, step, s, i, vpn, live);
      if (st.mark_base >= 0) {
        const auto mit = st.marks.find(stmt.lhs);
        if (mit != st.marks.end())
          mit->second.on_write(static_cast<unsigned>(st.mark_base) + vpn,
                               static_cast<std::size_t>(idx));
      }
      st.store_locks.lock(static_cast<std::size_t>(idx));
      const double old = arr[static_cast<std::size_t>(idx)];
      arr[static_cast<std::size_t>(idx)] = v;
      const long tick = st.ticket.fetch_add(1, std::memory_order_relaxed);
      st.store_locks.unlock(static_cast<std::size_t>(idx));
      // Interned array name: the Stmt's lhs lives as long as the loop.
      st.logs[vpn].value.push_back({i, s, &stmt.lhs, idx, v, old, tick});
      return false;
    }
  }
  return false;
}

/// Scan a recurrence block's exit statements over the freshly computed
/// expansion; fires the earliest triggering exit, if any.
void scan_recurrence_exits(ExecState& st, int step, const Block& block,
                           long limit) {
  for (int s : block.stmts) {
    const Stmt& stmt = st.loop->body[static_cast<std::size_t>(s)];
    if (stmt.kind != StmtKind::kExitIf) continue;
    constexpr long kNone = std::numeric_limits<long>::max();
    const long hit = parallel_min(
        *st.pool, 0, std::min(limit, st.limit_now(s)), kNone, [&](long i) {
          if (stmt.guard && evalx(st, stmt.guard, step, s, i, 0, nullptr) == 0.0)
            return kNone;
          return evalx(st, stmt.rhs, step, s, i, 0, nullptr) != 0.0 ? i : kNone;
        });
    if (hit != kNone) st.fire(s, hit);
  }
}

}  // namespace

PlanExecution run_parallel_plan(ThreadPool& pool, const Loop& loop,
                                const ParallelPlan& plan, Env& env,
                                const PlanExecOptions& opts) {
  if (auto err = validate(loop))
    throw std::runtime_error("run_parallel_plan: " + *err);

  PlanExecution out;
  const mem::BudgetSnapshot mem0 = mem::Budget::process().snapshot();
  ExecState st;
  st.loop = &loop;
  st.plan = &plan;
  st.env = &env;
  st.pool = &pool;
  // The entry-state copy is this scheme's checkpoint (Tb) — decided PER
  // ARRAY through the same cost model the runtime targets use: an array the
  // plan stores into densely gets a snapshot (restore = one copy); one
  // written sparsely relies on the write log instead (every store records
  // the value it displaced plus a ticket, and replaying the `old` values in
  // descending ticket order is an exact inverse); one never written needs
  // neither.  The density estimate here is static — stores-per-iteration
  // times max_iters, an upper bound on distinct touched locations, so the
  // decision errs toward the dense snapshot.
  const auto snap0 = std::chrono::steady_clock::now();
  st.entry_scalars = env.scalars;
  std::map<std::string, long> array_write_stmts;
  for (const Stmt& bstmt : loop.body)
    if (bstmt.kind == StmtKind::kAssignArray) ++array_write_stmts[bstmt.lhs];
  for (const auto& [aname, arr] : env.arrays) {
    const auto wit = array_write_stmts.find(aname);
    if (wit == array_write_stmts.end()) {
      // Never written by this loop: no snapshot, no log, nothing to restore.
      out.snapshot_bytes_saved += static_cast<long>(arr.size() * sizeof(double));
      continue;
    }
    const std::size_t expected = static_cast<std::size_t>(wit->second) *
                                 static_cast<std::size_t>(loop.max_iters);
    if (choose_backup(arr.size(), expected).kind == BackupKind::kDense) {
      st.entry_arrays.emplace(aname, arr);
      ++out.arrays_dense_snapshot;
    } else {
      ++out.arrays_log_undo;
      out.snapshot_bytes_saved += static_cast<long>(arr.size() * sizeof(double));
    }
  }
  out.snapshot_ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - snap0)
                        .count();
  WLP_OBS_COUNT("wlp.undo.checkpoint_ns", static_cast<long>(out.snapshot_ns));
  st.logs.resize(pool.size());

  for (std::size_t k = 0; k < loop.body.size(); ++k)
    if (loop.body[k].kind == StmtKind::kAssignScalar)
      st.def_of[loop.body[k].lhs] = static_cast<int>(k);
  st.step_of.assign(loop.body.size(), -1);
  for (std::size_t b = 0; b < plan.steps.size(); ++b)
    for (int s : plan.steps[b].block.stmts)
      st.step_of[static_cast<std::size_t>(s)] = static_cast<int>(b);
  for (const auto& [name, stmt] : st.def_of) {
    (void)stmt;
    st.expansion[name].assign(static_cast<std::size_t>(loop.max_iters),
                              std::numeric_limits<double>::quiet_NaN());
  }

  // PD marks for the arrays the plan flags as unanalyzable: one stream per
  // (parallel block, worker).
  unsigned parallel_steps = 0;
  for (const PlanStep& step : plan.steps)
    if (step.block.rec.kind == BlockKind::kParallel ||
        step.block.rec.kind == BlockKind::kUnknownAccess)
      ++parallel_steps;
  for (const std::string& a : plan.pd_arrays) {
    const auto it = env.arrays.find(a);
    if (it == env.arrays.end()) continue;
    st.marks.try_emplace(a, it->second.size(), parallel_steps * pool.size(),
                         /*on=*/true);
  }
  long next_mark_base = 0;

  // ---- execute the plan's steps in order ------------------------------------
  for (std::size_t b = 0; b < plan.steps.size(); ++b) {
    const PlanStep& step = plan.steps[static_cast<std::size_t>(b)];
    const Block& block = step.block;
    const int bi = static_cast<int>(b);
    st.mark_base = -1;  // only parallel blocks record PD marks

    switch (block.rec.kind) {
      case BlockKind::kInduction: {
        // Closed form: x(i) = x0 + add*(i+1) (the def executes once per
        // iteration), evaluated fully in parallel.
        const std::string& x = block.rec.var;
        const int def = st.def_of.at(x);
        const long limit = st.limit_now(def);
        const double x0 = st.entry_scalars.count(x) ? st.entry_scalars.at(x)
                                                    : std::numeric_limits<double>::quiet_NaN();
        const double add = block.rec.add;
        auto& exp = st.expansion.at(x);
        doall(pool, 0, limit, [&](long i, unsigned) {
          exp[static_cast<std::size_t>(i)] = x0 + add * static_cast<double>(i + 1);
        });
        scan_recurrence_exits(st, bi, block, limit);
        break;
      }
      case BlockKind::kAssociative: {
        // The real Section 3.2 path: parallel prefix over affine maps.
        const std::string& x = block.rec.var;
        const int def = st.def_of.at(x);
        const long limit = st.limit_now(def);
        const double x0 = st.entry_scalars.count(x) ? st.entry_scalars.at(x)
                                                    : std::numeric_limits<double>::quiet_NaN();
        auto terms = affine_recurrence_terms<double>(
            pool, x0, block.rec.mul, block.rec.add, limit);
        auto& exp = st.expansion.at(x);
        for (long i = 0; i < limit; ++i)
          exp[static_cast<std::size_t>(i)] = terms[static_cast<std::size_t>(i)];
        ++out.prefix_blocks;
        scan_recurrence_exits(st, bi, block, limit);
        break;
      }
      case BlockKind::kGeneralRecurrence: {
        // Inherently sequential chain.
        const std::string& x = block.rec.var;
        const int def = st.def_of.at(x);
        std::map<std::string, double> live;
        live[x] = st.entry_scalars.count(x) ? st.entry_scalars.at(x)
                                            : std::numeric_limits<double>::quiet_NaN();
        for (long i = 0; i < loop.max_iters; ++i) {
          bool exited = false;
          for (int s : block.stmts) {
            if (i >= st.limit_now(s)) {
              exited = true;
              continue;
            }
            if (execute_stmt(st, bi, s, i, 0, &live)) exited = true;
          }
          if (exited && i >= st.limit_now(def)) break;
        }
        break;
      }
      case BlockKind::kParallel:
      case BlockKind::kUnknownAccess: {
        ++out.parallel_blocks;
        st.mark_base = next_mark_base;
        next_mark_base += static_cast<long>(pool.size());
        auto block_body = [&](long i, unsigned vpn) {
          for (auto& [name, m] : st.marks) {
            (void)name;
            m.begin_iteration(static_cast<unsigned>(st.mark_base) + vpn, i);
          }
          bool any = false;
          bool exited = false;
          for (int s : block.stmts) {
            if (i >= st.limit_now(s)) continue;
            any = true;
            if (execute_stmt(st, bi, s, i, vpn, nullptr)) {
              exited = true;
              break;  // statements after the exit don't run this iteration
            }
          }
          if (exited) return IterAction::kExit;
          return any ? IterAction::kContinue : IterAction::kExit;
        };
        if (opts.memory_budget != 0) {
          // Section 8.2 applied to the interpreter: bound the write-log
          // footprint with the sliding-window controller.  Every logged
          // store claimed a ticket, so ticket count x entry size IS the
          // log's live bytes — a measured signal with no per-worker scan.
          WindowOptions wopts;
          wopts.window = opts.window;
          wopts.min_window = opts.min_window;
          wopts.max_window = opts.max_window;
          wopts.memory_budget = opts.memory_budget;
          wopts.charge_process_budget = opts.charge_process_budget;
          wopts.live_bytes = [&st] {
            return static_cast<std::size_t>(
                       st.ticket.load(std::memory_order_relaxed)) *
                   sizeof(LoggedWrite);
          };
          const WindowReport wrep =
              sliding_window_while(pool, loop.max_iters, block_body, wopts);
          ++out.window_runs;
          out.window_final = wrep.final_window;
          out.window_shrinks += wrep.window_shrinks;
          out.window_grows += wrep.window_grows;
          out.window_cap = wrep.final_cap;
          out.window_cap_bytes = static_cast<long>(wrep.cap_bytes);
          out.window_peak_bytes =
              std::max(out.window_peak_bytes,
                       static_cast<long>(wrep.peak_stamp_bytes));
        } else {
          doall_quit(pool, 0, loop.max_iters, block_body);
        }
        break;
      }
      case BlockKind::kSequential: {
        // Ordered execution through the DOACROSS pipeline (the whole
        // iteration is the sequential phase for interpreted statements).
        std::map<std::string, double> live;
        for (int s : block.stmts)
          if (loop.body[static_cast<std::size_t>(s)].kind == StmtKind::kAssignScalar) {
            const std::string& x = loop.body[static_cast<std::size_t>(s)].lhs;
            live[x] = st.entry_scalars.count(x)
                          ? st.entry_scalars.at(x)
                          : std::numeric_limits<double>::quiet_NaN();
          }
        const DoacrossResult dr = doacross_while(
            pool, loop.max_iters,
            [&](long i) {
              bool any = false;
              for (int s : block.stmts) {
                if (i >= st.limit_now(s)) continue;
                any = true;
                if (execute_stmt(st, bi, s, i, 0, &live)) return false;
              }
              return any;
            },
            [](long, unsigned) {});
        out.doacross_parks += static_cast<long>(dr.parks);
        out.doacross_wait_rounds += static_cast<long>(dr.wait_rounds);
        break;
      }
    }
  }

  // ---- PD verdicts (filtered by the final trip) ------------------------------
  long trip = loop.max_iters;
  for (const FiredExit& e : st.fired) trip = std::min(trip, e.iter);

  for (const auto& [name, m] : st.marks) {
    (void)name;
    if (!m.analyze(pool, trip).fully_parallel()) out.speculation_failed = true;
  }
  std::vector<LoggedWrite> writes;
  for (auto& l : st.logs) {
    writes.insert(writes.end(), l.value.begin(), l.value.end());
    out.logged_writes += static_cast<long>(l.value.size());
  }

  // Return every array to its exact pre-loop state: snapshot copy-back for
  // the dense-decided arrays, FULL reverse-ticket write-log undo for the
  // rest.  Full (not selective) undo is load-bearing: undoing only invalid
  // writes would clobber a kept valid value whenever an invalid-early /
  // valid-late pair hit the same location, so the only order-safe scheme is
  // undo everything, then re-apply the valid writes in program order.
  const auto undo_to_entry = [&] {
    for (const auto& [aname, snap] : st.entry_arrays)
      env.arrays.at(aname) = snap;
    std::sort(writes.begin(), writes.end(),
              [](const LoggedWrite& a, const LoggedWrite& b) {
                return a.ticket > b.ticket;
              });
    for (const LoggedWrite& w : writes) {
      if (st.entry_arrays.count(*w.array) != 0) continue;  // snapshot-restored
      env.arrays.at(*w.array)[static_cast<std::size_t>(w.idx)] = w.old;
    }
  };

  if (out.speculation_failed) {
    // Restore everything and run the loop the old-fashioned way.
    env.scalars = st.entry_scalars;
    undo_to_entry();
    out.trip = run_sequential(loop, env);
    return out;
  }

  // ---- undo/replay: apply only the writes valid under the final exits --------
  const auto replay0 = std::chrono::steady_clock::now();
  undo_to_entry();
  std::stable_sort(writes.begin(), writes.end(),
                   [](const LoggedWrite& a, const LoggedWrite& b) {
                     if (a.iter != b.iter) return a.iter < b.iter;
                     return a.stmt < b.stmt;
                   });
  for (const LoggedWrite& w : writes) {
    if (w.iter >= stmt_limit(w.stmt, loop.max_iters, st.fired)) {
      ++out.discarded_writes;
      continue;
    }
    env.arrays.at(*w.array)[static_cast<std::size_t>(w.idx)] = w.value;
  }
  out.replay_ns = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - replay0)
                      .count();
  WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(out.replay_ns));

  // ---- final scalar values ----------------------------------------------------
  for (const auto& [name, def_stmt] : st.def_of) {
    const long lim = stmt_limit(def_stmt, loop.max_iters, st.fired);
    if (lim > 0) {
      env.scalars[name] = st.expansion.at(name)[static_cast<std::size_t>(lim - 1)];
    } else if (st.entry_scalars.count(name)) {
      env.scalars[name] = st.entry_scalars.at(name);
    }
  }

  const mem::BudgetSnapshot mem1 = mem::Budget::process().snapshot();
  out.mem_arena_allocs = mem1.arena_allocs - mem0.arena_allocs;
  out.mem_slow_allocs = mem1.slow_allocs - mem0.slow_allocs;
  out.mem_bytes_live = mem1.bytes_live;

  out.trip = trip;
  return out;
}

PlanExecution run_parallel_plan(ThreadPool& pool, const Loop& loop,
                                const ParallelPlan& plan, Env& env) {
  return run_parallel_plan(pool, loop, plan, env, PlanExecOptions{});
}

}  // namespace wlp::ir
