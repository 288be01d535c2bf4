#include "wlp/analysis/distribute.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace wlp::ir {

Distribution distribute(const Loop& loop, const DepGraph& g) {
  Distribution d;
  for (const auto& comp : strongly_connected_components(g)) {
    Block b;
    b.stmts = comp;
    b.rec = classify_component(loop, g, comp);
    d.blocks.push_back(std::move(b));
  }
  return d;
}

Distribution distribute(const Loop& loop) {
  const DepGraph g = build_dep_graph(loop);
  return distribute(loop, g);
}

namespace {

/// Fusion category: which neighbors a block may merge with.
enum class FuseClass { kParallel, kSequentialish, kKeepAlone };

FuseClass fuse_class(BlockKind k) {
  switch (k) {
    case BlockKind::kParallel:
      return FuseClass::kParallel;
    case BlockKind::kSequential:
    case BlockKind::kGeneralRecurrence:
      return FuseClass::kSequentialish;
    case BlockKind::kInduction:
    case BlockKind::kAssociative:
    case BlockKind::kUnknownAccess:
      // Inductions/associatives keep their identity so prefix/closed-form
      // methods apply; unknown-access blocks keep theirs so a failed PD
      // test does not drag fused neighbors into the sequential re-run
      // (Section 6: "loops parallelized with the PD test should be fused
      // with care — if at all").
      return FuseClass::kKeepAlone;
  }
  return FuseClass::kKeepAlone;
}

}  // namespace

Distribution fuse(const Loop& loop, const Distribution& d) {
  const DepGraph g = build_dep_graph(loop);
  Distribution out;
  for (const Block& b : d.blocks) {
    const FuseClass cls = fuse_class(b.rec.kind);
    const bool can_merge =
        !out.blocks.empty() && cls != FuseClass::kKeepAlone &&
        fuse_class(out.blocks.back().rec.kind) == cls;
    if (can_merge) {
      Block& prev = out.blocks.back();
      prev.stmts.insert(prev.stmts.end(), b.stmts.begin(), b.stmts.end());
      std::sort(prev.stmts.begin(), prev.stmts.end());
      prev.rec.contains_exit = prev.rec.contains_exit || b.rec.contains_exit;
      // Re-classify the merged component (it may have become sequential).
      prev.rec = classify_component(loop, g, prev.stmts);
    } else {
      out.blocks.push_back(b);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Distributed execution (the transformation's executable semantics)
// ---------------------------------------------------------------------------

namespace {

constexpr long kNotFired = std::numeric_limits<long>::max();

/// Iterations statement `s` may validly execute given each exit's lowest
/// firing iteration (`fired`, indexed by statement; kNotFired where none
/// fired): statements textually before an exit run through its firing
/// iteration inclusive; statements after it stop one earlier.
long stmt_limit(int s, long max_iters, const std::vector<long>& fired) {
  long lim = max_iters;
  for (std::size_t e = 0; e < fired.size(); ++e)
    if (fired[e] != kNotFired)
      lim = std::min(lim, fired[e] + (static_cast<std::size_t>(s) < e ? 1 : 0));
  return lim;
}

struct LoggedWrite {
  long iter;
  int stmt;
  std::string array;
  long idx;
  double value;
};

}  // namespace

long run_distributed(const Loop& loop, const Distribution& d, Env& env) {
  if (auto err = validate(loop)) throw std::runtime_error("run_distributed: " + *err);

  // Which statement defines each scalar, and textual positions.
  std::map<std::string, int> def_of;
  for (std::size_t k = 0; k < loop.body.size(); ++k)
    if (loop.body[k].kind == StmtKind::kAssignScalar)
      def_of[loop.body[k].lhs] = static_cast<int>(k);

  // Which block each statement lives in.
  std::vector<int> block_of(loop.body.size(), -1);
  for (std::size_t b = 0; b < d.blocks.size(); ++b)
    for (int s : d.blocks[b].stmts) block_of[static_cast<std::size_t>(s)] = static_cast<int>(b);
  for (std::size_t k = 0; k < loop.body.size(); ++k)
    if (block_of[k] < 0) throw std::runtime_error("run_distributed: statement not in any block");

  const std::map<std::string, double> entry_scalars = env.scalars;
  const std::map<std::string, std::vector<double>> entry_arrays = env.arrays;

  // Scalar expansion storage: per loop-defined scalar, its value at each
  // iteration (NaN = not (yet) computed).
  std::map<std::string, std::vector<double>> expansion;
  for (const auto& [name, stmt] : def_of) {
    (void)stmt;
    expansion[name].assign(static_cast<std::size_t>(loop.max_iters),
                           std::numeric_limits<double>::quiet_NaN());
  }

  std::vector<long> fired(loop.body.size(), kNotFired);
  std::vector<LoggedWrite> writes;

  for (std::size_t bi = 0; bi < d.blocks.size(); ++bi) {
    const Block& block = d.blocks[bi];

    // Live scalar values for recurrences carried inside this block.
    std::map<std::string, double> live;
    for (int s : block.stmts)
      if (loop.body[static_cast<std::size_t>(s)].kind == StmtKind::kAssignScalar) {
        const std::string& x = loop.body[static_cast<std::size_t>(s)].lhs;
        const auto it = entry_scalars.find(x);
        live[x] = it != entry_scalars.end()
                      ? it->second
                      : std::numeric_limits<double>::quiet_NaN();
      }

    // Expression evaluation with block-aware scalar resolution.
    std::function<double(const ExprPtr&, int, long)> evalx =
        [&](const ExprPtr& e, int at_stmt, long i) -> double {
      switch (e->kind) {
        case ExprKind::kConst:
          return e->value;
        case ExprKind::kIndex:
          return static_cast<double>(i);
        case ExprKind::kScalar: {
          const auto dit = def_of.find(e->name);
          if (dit == def_of.end()) {
            const auto sit = env.scalars.find(e->name);
            if (sit == env.scalars.end())
              throw std::runtime_error("run_distributed: undefined scalar " + e->name);
            return sit->second;  // loop-invariant
          }
          const int def_stmt = dit->second;
          if (block_of[static_cast<std::size_t>(def_stmt)] == static_cast<int>(bi))
            return live.at(e->name);  // same block: live (handles recurrences)
          if (block_of[static_cast<std::size_t>(def_stmt)] > static_cast<int>(bi))
            throw std::runtime_error(
                "run_distributed: use before producing block for " + e->name);
          // Earlier block: read the expansion, shifted by one iteration when
          // the def is textually after the use (carried flow).
          const long src = def_stmt < at_stmt ? i : i - 1;
          if (src < 0) {
            const auto sit = entry_scalars.find(e->name);
            return sit != entry_scalars.end()
                       ? sit->second
                       : std::numeric_limits<double>::quiet_NaN();
          }
          return expansion.at(e->name)[static_cast<std::size_t>(src)];
        }
        case ExprKind::kArray: {
          const auto it = env.arrays.find(e->name);
          if (it == env.arrays.end())
            throw std::runtime_error("run_distributed: undefined array " + e->name);
          const auto idx = static_cast<long>(evalx(e->a, at_stmt, i));
          if (idx < 0 || idx >= static_cast<long>(it->second.size()))
            throw std::runtime_error("run_distributed: " + e->name + " out of range");
          return it->second[static_cast<std::size_t>(idx)];
        }
        case ExprKind::kBinary: {
          const double l = evalx(e->a, at_stmt, i);
          const double r = evalx(e->b, at_stmt, i);
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
            default:
              throw std::runtime_error("run_distributed: bad operator");
          }
        }
        case ExprKind::kCall: {
          const auto it = env.funcs.find(e->name);
          if (it == env.funcs.end())
            throw std::runtime_error("run_distributed: undefined function " + e->name);
          return it->second(evalx(e->a, at_stmt, i));
        }
      }
      throw std::runtime_error("run_distributed: bad expression");
    };

    for (long i = 0; i < loop.max_iters; ++i) {
      bool any_ran = false;
      for (int s : block.stmts) {
        if (i >= stmt_limit(s, loop.max_iters, fired)) continue;
        any_ran = true;
        const Stmt& st = loop.body[static_cast<std::size_t>(s)];
        if (st.guard && evalx(st.guard, s, i) == 0.0) {
          // Guard failed: a conditional scalar def carries its previous
          // value forward into the expansion.
          if (st.kind == StmtKind::kAssignScalar)
            expansion.at(st.lhs)[static_cast<std::size_t>(i)] = live.at(st.lhs);
          continue;
        }
        switch (st.kind) {
          case StmtKind::kExitIf:
            if (evalx(st.rhs, s, i) != 0.0) {
              long& at = fired[static_cast<std::size_t>(s)];
              at = std::min(at, i);
            }
            break;
          case StmtKind::kAssignScalar: {
            const double v = evalx(st.rhs, s, i);
            live[st.lhs] = v;
            expansion.at(st.lhs)[static_cast<std::size_t>(i)] = v;
            break;
          }
          case StmtKind::kAssignArray: {
            const auto idx = static_cast<long>(evalx(st.subscript, s, i));
            auto& arr = env.arrays.at(st.lhs);
            if (idx < 0 || idx >= static_cast<long>(arr.size()))
              throw std::runtime_error("run_distributed: store out of range");
            const double v = evalx(st.rhs, s, i);
            arr[static_cast<std::size_t>(idx)] = v;
            writes.push_back({i, s, st.lhs, idx, v});
            break;
          }
        }
      }
      if (!any_ran) break;
    }
  }

  // ---- undo: replay only writes valid under the final exit set -------------
  env.arrays = entry_arrays;
  std::stable_sort(writes.begin(), writes.end(),
                   [](const LoggedWrite& a, const LoggedWrite& b) {
                     if (a.iter != b.iter) return a.iter < b.iter;
                     return a.stmt < b.stmt;
                   });
  for (const LoggedWrite& w : writes) {
    if (w.iter >= stmt_limit(w.stmt, loop.max_iters, fired)) continue;
    env.arrays.at(w.array)[static_cast<std::size_t>(w.idx)] = w.value;
  }

  // ---- final scalar values ---------------------------------------------------
  for (const auto& [name, def_stmt] : def_of) {
    const long lim = stmt_limit(def_stmt, loop.max_iters, fired);
    if (lim > 0) {
      env.scalars[name] = expansion.at(name)[static_cast<std::size_t>(lim - 1)];
    } else {
      const auto it = entry_scalars.find(name);
      if (it != entry_scalars.end()) env.scalars[name] = it->second;
    }
  }

  // ---- trip count -------------------------------------------------------------
  long trip = loop.max_iters;
  for (const long at : fired) trip = std::min(trip, at);
  return trip;
}

std::string to_string(const Distribution& d, const Loop& loop) {
  std::ostringstream os;
  for (std::size_t b = 0; b < d.blocks.size(); ++b) {
    const Block& blk = d.blocks[b];
    os << "block " << b << " [" << to_string(blk.rec.kind);
    if (!blk.rec.var.empty()) os << " var=" << blk.rec.var;
    if (blk.rec.contains_exit) os << " +exit";
    os << "]\n";
    for (int s : blk.stmts)
      os << "  s" << s << ": " << to_string(loop.body[static_cast<std::size_t>(s)]) << '\n';
  }
  return os.str();
}

}  // namespace wlp::ir
