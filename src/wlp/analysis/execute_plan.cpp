#include "wlp/analysis/execute_plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "wlp/core/shadow.hpp"
#include "wlp/mem/budget.hpp"
#include "wlp/obs/obs.hpp"
#include "wlp/sched/doall.hpp"
#include "wlp/sched/parallel_prefix.hpp"
#include "wlp/sched/reduce.hpp"
#include "wlp/support/cacheline.hpp"
#include "wlp/support/prng.hpp"

namespace wlp::ir {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct LoggedWrite {
  long iter;
  int stmt;
  const std::string* array;  // interned: points into the loop's name set
  long idx;
  double value;
  double old;   ///< value the store displaced (the write-log undo)
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

/// Everything one execution of a distributed loop needs, whether its blocks
/// run as the plan's methods (run_parallel_plan) or each as one sequential
/// loop (run_distributed).
struct ExecState {
  /// `blocks[b]` is block b, in program order; `pool` is null when every
  /// block runs sequentially.
  ExecState(const Loop& l, Env& e, const std::vector<const Block*>& blocks,
            ThreadPool* p)
      : loop(&l),
        env(&e),
        pool(p),
        step_of(l.body.size(), -1),
        entry_scalars(e.scalars),
        fired(l.body.size()),
        logs(p != nullptr ? p->size() : 1) {
    if (auto err = validate(l)) throw std::runtime_error("plan-exec: " + *err);
    for (std::size_t k = 0; k < l.body.size(); ++k)
      if (l.body[k].kind == StmtKind::kAssignScalar) {
        def_of[l.body[k].lhs] = static_cast<int>(k);
        expansion[l.body[k].lhs].assign(static_cast<std::size_t>(l.max_iters), kNaN);
      }
    for (std::size_t b = 0; b < blocks.size(); ++b)
      for (int s : blocks[b]->stmts)
        step_of[static_cast<std::size_t>(s)] = static_cast<int>(b);
    if (std::find(step_of.begin(), step_of.end(), -1) != step_of.end())
      throw std::runtime_error("plan-exec: statement not in any block");
  }

  const Loop* loop;
  Env* env;
  ThreadPool* pool;

  std::map<std::string, int> def_of;  // scalar -> defining stmt
  std::vector<int> step_of;           // stmt -> block index
  std::map<std::string, std::vector<double>> expansion;
  std::map<std::string, double> entry_scalars;

  /// Each statement's lowest firing iteration (only exits fire).  The
  /// limits below need nothing else, and the workers of a parallel block
  /// fire and read these at once: each is a lock-free fetch-min.
  std::vector<QuitBound> fired;

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

  /// A loop scalar's value at entry, NaN if it had none.
  double entry(const std::string& x) const {
    const auto it = entry_scalars.find(x);
    return it != entry_scalars.end() ? it->second : kNaN;
  }

  /// Iterations statement `s` may validly execute: statements textually
  /// before an exit run through its firing iteration inclusive; statements
  /// after it stop one earlier.
  long limit_now(int s) const {
    long lim = loop->max_iters;
    for (std::size_t e = 0; e < fired.size(); ++e) {
      const long at = fired[e].bound();
      if (at != QuitBound::kUnset)
        lim = std::min(lim, at + (static_cast<std::size_t>(s) < e ? 1 : 0));
    }
    return lim;
  }

  void fire(int s, long i) { fired[static_cast<std::size_t>(s)].quit(i); }

  long trip() const {
    long t = loop->max_iters;
    for (const QuitBound& b : fired) t = std::min(t, b.bound());
    return t;
  }

  /// The live values of the scalars `block` defines, at loop entry.
  std::map<std::string, double> live_scalars(const Block& block) const {
    std::map<std::string, double> live;
    for (int s : block.stmts) {
      const Stmt& stmt = loop->body[static_cast<std::size_t>(s)];
      if (stmt.kind == StmtKind::kAssignScalar) live[stmt.lhs] = entry(stmt.lhs);
    }
    return live;
  }

  /// Returns every array to its exact pre-loop state: FULL reverse-ticket
  /// write-log undo.  Per location, lock order is ticket order, so the
  /// lowest-ticket store's `old` is the entry value and lands last.  Full
  /// (not selective) undo is load-bearing: undoing only invalid writes
  /// would clobber a kept valid value whenever an invalid-early /
  /// valid-late pair hit the same location, so the only order-safe scheme
  /// is undo everything, then re-apply the valid writes in program order.
  std::vector<LoggedWrite> undo_to_entry() {
    std::vector<LoggedWrite> writes;
    for (auto& l : logs) writes.insert(writes.end(), l.value.begin(), l.value.end());
    std::sort(writes.begin(), writes.end(),
              [](const LoggedWrite& a, const LoggedWrite& b) {
                return a.ticket > b.ticket;
              });
    for (const LoggedWrite& w : writes)
      env->arrays.at(*w.array)[static_cast<std::size_t>(w.idx)] = w.old;
    return writes;
  }

  /// Section 4's undo in write-log form: undo every store, replay in
  /// program order only the writes valid under the final exits, and give
  /// each loop scalar its value at its last valid iteration.  Returns the
  /// number of overshot writes dropped.
  long commit() {
    std::vector<LoggedWrite> writes = undo_to_entry();
    std::stable_sort(writes.begin(), writes.end(),
                     [](const LoggedWrite& a, const LoggedWrite& b) {
                       if (a.iter != b.iter) return a.iter < b.iter;
                       return a.stmt < b.stmt;
                     });
    long discarded = 0;
    for (const LoggedWrite& w : writes) {
      if (w.iter >= limit_now(w.stmt)) {
        ++discarded;
        continue;
      }
      env->arrays.at(*w.array)[static_cast<std::size_t>(w.idx)] = w.value;
    }
    for (const auto& [name, def_stmt] : def_of) {
      const long lim = limit_now(def_stmt);
      if (lim > 0) {
        env->scalars[name] = expansion.at(name)[static_cast<std::size_t>(lim - 1)];
      } else if (entry_scalars.count(name)) {
        env->scalars[name] = entry_scalars.at(name);
      }
    }
    return discarded;
  }
};

/// Expression evaluation with block-aware scalar resolution.
/// `step` = block being executed; `at_stmt` = consuming statement;
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
      if (def_step > step)
        throw std::runtime_error("plan-exec: use before producing block for " +
                                 e->name);
      if (def_step == step && live != nullptr) return live->at(e->name);
      // Same parallel block (def before use) or an earlier block: read the
      // expansion, shifted when the def is textually after the use.
      const long src = def_stmt < at_stmt ? i : i - 1;
      return src < 0 ? st.entry(e->name)
                     : st.expansion.at(e->name)[static_cast<std::size_t>(src)];
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

/// Iteration `i` of block `step`: runs, in textual order, the statements
/// still under their exit limits.  Returns false when the block's loop
/// stops here: an exit fired, or no statement ran.
bool run_iteration(ExecState& st, int step, const Block& block, long i,
                   unsigned vpn, std::map<std::string, double>* live) {
  bool any = false;
  for (int s : block.stmts) {
    if (i >= st.limit_now(s)) continue;
    any = true;
    if (execute_stmt(st, step, s, i, vpn, live)) return false;
  }
  return any;
}

/// Block `step` as one sequential loop, the scalars it defines read live.
void run_sequentially(ExecState& st, int step, const Block& block) {
  std::map<std::string, double> live = st.live_scalars(block);
  for (long i = 0; i < st.loop->max_iters; ++i)
    if (!run_iteration(st, step, block, i, 0, &live)) break;
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

long run_distributed(const Loop& loop, const Distribution& d, Env& env) {
  std::vector<const Block*> blocks;
  for (const Block& b : d.blocks) blocks.push_back(&b);
  ExecState st(loop, env, blocks, nullptr);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    run_sequentially(st, static_cast<int>(b), *blocks[b]);
  st.commit();
  return st.trip();
}

PlanExecution run_parallel_plan(ThreadPool& pool, const Loop& loop,
                                const ParallelPlan& plan, Env& env) {
  PlanExecution out;
  const mem::BudgetSnapshot mem0 = mem::Budget::process().snapshot();
  std::vector<const Block*> blocks;
  for (const PlanStep& step : plan.steps) blocks.push_back(&step.block);
  ExecState st(loop, env, blocks, &pool);

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
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Block& block = *blocks[b];
    const int bi = static_cast<int>(b);
    st.mark_base = -1;  // only parallel blocks record PD marks

    switch (block.rec.kind) {
      case BlockKind::kInduction: {
        // Closed form: x(i) = x0 + add*(i+1) (the def executes once per
        // iteration), evaluated fully in parallel.
        const std::string& x = block.rec.var;
        const long limit = st.limit_now(st.def_of.at(x));
        const double x0 = st.entry(x);
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
        const long limit = st.limit_now(st.def_of.at(x));
        auto terms = affine_recurrence_terms<double>(
            pool, st.entry(x), block.rec.mul, block.rec.add, limit);
        auto& exp = st.expansion.at(x);
        for (long i = 0; i < limit; ++i)
          exp[static_cast<std::size_t>(i)] = terms[static_cast<std::size_t>(i)];
        ++out.prefix_blocks;
        scan_recurrence_exits(st, bi, block, limit);
        break;
      }
      case BlockKind::kGeneralRecurrence:
      case BlockKind::kSequential:
        // An inherently sequential chain, and an ordered block: its
        // DOACROSS would have an empty overlapped phase and only move the
        // frontier from thread to thread, so it runs in place.
        run_sequentially(st, bi, block);
        break;
      case BlockKind::kParallel:
      case BlockKind::kUnknownAccess: {
        ++out.parallel_blocks;
        st.mark_base = next_mark_base;
        next_mark_base += static_cast<long>(pool.size());
        doall_quit(pool, 0, loop.max_iters, [&](long i, unsigned vpn) {
          for (auto& [name, m] : st.marks) {
            (void)name;
            m.begin_iteration(static_cast<unsigned>(st.mark_base) + vpn, i);
          }
          return run_iteration(st, bi, block, i, vpn, nullptr)
                     ? IterAction::kContinue
                     : IterAction::kExit;
        });
        break;
      }
    }
  }

  // ---- PD verdicts (filtered by the final trip) ------------------------------
  const long trip = st.trip();
  for (const auto& [name, m] : st.marks) {
    (void)name;
    if (!m.analyze(pool, trip).fully_parallel()) out.speculation_failed = true;
  }
  out.logged_writes = st.ticket.load(std::memory_order_relaxed);

  if (out.speculation_failed) {
    // Restore everything and run the loop the old-fashioned way.
    env.scalars = st.entry_scalars;
    st.undo_to_entry();
    out.trip = run_sequential(loop, env);
    return out;
  }

  // ---- undo/replay: apply only the writes valid under the final exits --------
  const auto replay0 = std::chrono::steady_clock::now();
  out.discarded_writes = st.commit();
  out.replay_ns = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - replay0)
                      .count();
  WLP_OBS_COUNT("wlp.undo.restore_ns", static_cast<long>(out.replay_ns));

  const mem::BudgetSnapshot mem1 = mem::Budget::process().snapshot();
  out.mem_arena_allocs = mem1.arena_allocs - mem0.arena_allocs;
  out.mem_slow_allocs = mem1.slow_allocs - mem0.slow_allocs;
  out.mem_bytes_live = mem1.bytes_live;

  out.trip = trip;
  return out;
}

}  // namespace wlp::ir
