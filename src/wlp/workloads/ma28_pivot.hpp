// MA28 MA30AD loops 270/320 analog — Section 9, Table 2 rows 4-5,
// Figures 12-14.
//
// The loops cooperatively search the active submatrix for a Markowitz pivot:
// candidate rows (loop 270) / columns (loop 320) are visited in increasing
// nonzero count; each iteration scans one candidate for its best
// threshold-acceptable entry and updates the running best; the loop exits
// when the running best cost cannot be improved by later candidates
// ((nz-1)^2 bound) — an RV terminator, since the exit depends on values the
// remainder computes.
//
// MA28 is a *sequential* program, so the parallelization must be
// sequentially consistent: per the paper, candidates found during the
// parallel execution are time-stamped, and after loop termination the pivot
// is recovered by a time-stamp-ordered min reduction over the (privatized)
// per-processor candidates, filtered by the last valid iteration.
#pragma once

#include <cstdint>
#include <vector>

#include "wlp/core/report.hpp"
#include "wlp/sched/thread_pool.hpp"
#include "wlp/sim/machine.hpp"
#include "wlp/workloads/sparse_matrix.hpp"

namespace wlp::workloads {

struct PivotCandidate {
  std::int32_t row = -1;
  std::int32_t col = -1;
  double value = 0;
  long cost = -1;  ///< Markowitz (r-1)(c-1)

  bool valid() const noexcept { return row >= 0; }
};

enum class SearchAxis { kRows, kColumns };  ///< loop 270 vs loop 320

struct PivotSearchConfig {
  double threshold_u = 0.1;
  SearchAxis axis = SearchAxis::kRows;
};

class Ma28PivotSearch {
 public:
  /// Snapshot the matrix into a search problem: candidates sorted by
  /// increasing nonzero count (the MA30AD visit order).  The matrix is
  /// copied, so temporaries are safe to pass.
  Ma28PivotSearch(SparseMatrix a, PivotSearchConfig cfg = {});

  long candidates() const noexcept { return static_cast<long>(order_.size()); }

  /// Sequential reference.  `trip_out`, if non-null, receives the trip count.
  PivotCandidate search_sequential(long* trip_out = nullptr) const;

  /// Induction-1 over the candidate list with time-stamped pivot reduction.
  PivotCandidate search_induction1(ThreadPool& pool, ExecReport& report) const;

  /// General-3: the candidate list traversed as a linked structure (the
  /// MA30AD code walks count-ordered chains).
  PivotCandidate search_general3(ThreadPool& pool, ExecReport& report) const;

  /// Per-iteration work profile (candidate scan cost ~ its nonzero count).
  sim::LoopProfile profile() const;

 private:
  /// Best threshold-acceptable entry of candidate i; invalid if none.
  PivotCandidate scan_candidate(long i) const;
  /// The RV exit bound for iteration i: (count_i - 1)^2.
  long exit_bound(long i) const;
  /// MA30AD's level-boundary exit test (see .cpp).
  bool level_exit(long i, const PivotCandidate& best) const;
  /// The body both parallel searches share: the speculative exit test,
  /// the candidate scan and its publication.  `drive(body)` runs body(i)
  /// over the candidates under one method and returns its report; the
  /// time-stamp-ordered reduction then recovers the sequential trip and
  /// pivot.
  template <class Drive>
  PivotCandidate search_parallel(Drive&& drive, ExecReport& report) const;
  /// Exact sequential trip count given all candidate results.
  long true_trip(const std::vector<PivotCandidate>& found) const;
  PivotCandidate winner_before(const std::vector<PivotCandidate>& found,
                               long trip) const;

  PivotSearchConfig cfg_;
  SparseMatrix a_;
  SparseMatrix at_;                     ///< transpose (for column search)
  std::vector<std::int32_t> order_;     ///< candidates by increasing count
  std::vector<std::int32_t> counts_;    ///< count of candidate i
  std::vector<std::int32_t> cross_counts_;  ///< col (row) counts for costs
};

}  // namespace wlp::workloads
