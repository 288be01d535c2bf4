#include "wlp/analysis/distribute.hpp"

#include <algorithm>
#include <sstream>

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
