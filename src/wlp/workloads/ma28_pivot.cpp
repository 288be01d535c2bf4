#include "wlp/workloads/ma28_pivot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "wlp/core/while_doany.hpp"
#include "wlp/core/while_general.hpp"
#include "wlp/core/while_induction.hpp"

namespace wlp::workloads {

namespace {

/// Sequential better-than: lower cost, then larger magnitude; remaining ties
/// resolve to the earlier candidate (the sequential loop only replaces on
/// strict improvement).
bool better(const PivotCandidate& a, const PivotCandidate& b) {
  if (!b.valid()) return a.valid();
  if (!a.valid()) return false;
  if (a.cost != b.cost) return a.cost < b.cost;
  return std::abs(a.value) > std::abs(b.value);
}

}  // namespace

Ma28PivotSearch::Ma28PivotSearch(SparseMatrix a, PivotSearchConfig cfg)
    : cfg_(cfg), a_(std::move(a)), at_(a_.transpose()) {
  const SparseMatrix& primary = cfg_.axis == SearchAxis::kRows ? a_ : at_;
  const SparseMatrix& cross = cfg_.axis == SearchAxis::kRows ? at_ : a_;

  const std::int32_t n = primary.rows();
  order_.resize(static_cast<std::size_t>(n));
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](std::int32_t x, std::int32_t y) {
    return primary.row_nnz(x) < primary.row_nnz(y);
  });

  counts_.reserve(order_.size());
  for (std::int32_t r : order_)
    counts_.push_back(static_cast<std::int32_t>(primary.row_nnz(r)));

  cross_counts_.resize(static_cast<std::size_t>(cross.rows()));
  for (std::int32_t r = 0; r < cross.rows(); ++r)
    cross_counts_[static_cast<std::size_t>(r)] =
        static_cast<std::int32_t>(cross.row_nnz(r));
}

PivotCandidate Ma28PivotSearch::scan_candidate(long i) const {
  const SparseMatrix& primary = cfg_.axis == SearchAxis::kRows ? a_ : at_;
  const std::int32_t r = order_[static_cast<std::size_t>(i)];
  const auto cols = primary.row_cols(r);
  const auto vals = primary.row_vals(r);

  double maxv = 0;
  for (double v : vals) maxv = std::max(maxv, std::abs(v));

  PivotCandidate best;
  const long rcount = static_cast<long>(cols.size());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (std::abs(vals[k]) < cfg_.threshold_u * maxv) continue;
    const long ccount = cross_counts_[static_cast<std::size_t>(cols[k])];
    PivotCandidate cand;
    cand.cost = (rcount - 1) * (ccount - 1);
    cand.value = vals[k];
    if (cfg_.axis == SearchAxis::kRows) {
      cand.row = r;
      cand.col = cols[k];
    } else {
      cand.row = cols[k];
      cand.col = r;
    }
    if (better(cand, best) ||
        (!best.valid() && cand.valid())) {
      best = cand;
    }
  }
  return best;
}

long Ma28PivotSearch::exit_bound(long i) const {
  const long nz = counts_[static_cast<std::size_t>(i)];
  return (nz - 1) * (nz - 1);
}

bool Ma28PivotSearch::level_exit(long i, const PivotCandidate& best) const {
  // MA30AD completes a whole count level before testing the bound: the
  // exit can only fire at the first candidate of a new (higher) count.
  if (!best.valid() || i <= 0) return false;
  if (counts_[static_cast<std::size_t>(i)] ==
      counts_[static_cast<std::size_t>(i - 1)])
    return false;
  return best.cost <= exit_bound(i);
}

PivotCandidate Ma28PivotSearch::search_sequential(long* trip_out) const {
  PivotCandidate best;
  const long n = candidates();
  long trip = n;
  for (long i = 0; i < n; ++i) {
    if (level_exit(i, best)) {
      trip = i;
      break;
    }
    const PivotCandidate cand = scan_candidate(i);
    if (better(cand, best)) best = cand;
  }
  if (trip_out) *trip_out = trip;
  return best;
}

long Ma28PivotSearch::true_trip(const std::vector<PivotCandidate>& found) const {
  PivotCandidate best;
  const long n = candidates();
  for (long i = 0; i < n; ++i) {
    if (level_exit(i, best)) return i;
    if (i < static_cast<long>(found.size()) &&
        better(found[static_cast<std::size_t>(i)], best))
      best = found[static_cast<std::size_t>(i)];
  }
  return n;
}

PivotCandidate Ma28PivotSearch::winner_before(
    const std::vector<PivotCandidate>& found, long trip) const {
  PivotCandidate best;
  for (long i = 0; i < trip && i < static_cast<long>(found.size()); ++i)
    if (better(found[static_cast<std::size_t>(i)], best))
      best = found[static_cast<std::size_t>(i)];
  return best;
}

namespace {

/// Gather per-iteration candidates published during a parallel run into a
/// dense vector (index = iteration).
struct CandidateLog {
  std::vector<PivotCandidate> slots;
  explicit CandidateLog(long n) : slots(static_cast<std::size_t>(n)) {}
  void publish(long i, const PivotCandidate& c) {
    slots[static_cast<std::size_t>(i)] = c;  // single writer per iteration
  }
};

}  // namespace

template <class Drive>
PivotCandidate Ma28PivotSearch::search_parallel(Drive&& drive,
                                                ExecReport& report) const {
  CandidateLog log(candidates());
  // Running best for the *speculative* exit test, packed as (cost, iter).
  // The test fires only when the best candidate's ITERATION precedes i:
  // then a candidate with that cost exists among the sequential loop's
  // first i iterations too, so the sequential loop would also have exited
  // by i — firing is safe; not firing merely executes extra iterations.
  BestCandidate running;

  report = drive([&](long i) {
    if (!running.empty() && i > 0 &&
        counts_[static_cast<std::size_t>(i)] !=
            counts_[static_cast<std::size_t>(i - 1)] &&
        static_cast<long>(running.cost()) <= exit_bound(i) &&
        static_cast<long>(running.payload()) < i)
      return IterAction::kExit;
    const PivotCandidate cand = scan_candidate(i);
    log.publish(i, cand);
    if (cand.valid())
      running.publish(static_cast<std::uint32_t>(std::min<long>(
                          cand.cost, std::numeric_limits<std::int32_t>::max())),
                      static_cast<std::uint32_t>(i));
    return IterAction::kContinue;
  });

  // Time-stamp-ordered reduction (the paper's sequential-consistency step).
  report.trip = true_trip(log.slots);
  report.used_stamps = true;
  return winner_before(log.slots, report.trip);
}

PivotCandidate Ma28PivotSearch::search_induction1(ThreadPool& pool,
                                                  ExecReport& report) const {
  return search_parallel(
      [&](auto&& body) {
        return while_induction1(pool, candidates(),
                                [&](long i, unsigned) { return body(i); });
      },
      report);
}

PivotCandidate Ma28PivotSearch::search_general3(ThreadPool& pool,
                                                ExecReport& report) const {
  const long n = candidates();
  return search_parallel(
      [&](auto&& body) {
        return while_general3(
            pool, 0L, [](long c) { return c + 1; },
            [n](long c) { return c >= n; },
            [&](long i, long /*cursor*/, unsigned) { return body(i); });
      },
      report);
}

sim::LoopProfile Ma28PivotSearch::profile() const {
  sim::LoopProfile lp;
  const long n = candidates();
  long seq_trip;
  search_sequential(&seq_trip);
  lp.u = n;
  lp.trip = seq_trip;
  lp.work.reserve(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i)
    lp.work.push_back(0.8 * static_cast<double>(counts_[static_cast<std::size_t>(i)]) +
                      1.0);
  lp.next_cost = 0.3;  // count-ordered chain hop
  lp.writes_per_iter = 1;   // publish the candidate (time-stamped)
  lp.reads_per_iter = 1;
  lp.state_words = n;       // the privatized pivot records are backed up
  lp.overshoot_does_work = true;  // the exit depends on the running best
  return lp;
}

}  // namespace wlp::workloads
