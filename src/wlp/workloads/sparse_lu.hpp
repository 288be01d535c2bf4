// A working sparse LU factorization with Markowitz threshold pivoting — the
// MA28-class solver substrate.  The pivot-search loops the paper
// parallelizes (MA30AD loops 270/320) live in ma28_pivot.hpp; this solver
// embeds the same search so that the workload is a real factorization, not
// a mock: tests verify P*A*Q = L*U by reconstruction and by solving.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "wlp/sched/thread_pool.hpp"
#include "wlp/workloads/sparse_matrix.hpp"

namespace wlp::workloads {

struct LUOptions {
  double threshold_u = 0.1;  ///< MA28's stability threshold: |a| >= u * maxrow
};

class MarkowitzLU {
 public:
  explicit MarkowitzLU(const SparseMatrix& a, LUOptions opts = {});

  /// Factor P*A*Q = L*U.  Returns false if the matrix is structurally or
  /// numerically singular under the threshold.
  bool factor();

  /// Perform only the next `steps` pivot eliminations (resumable).  Used to
  /// expose realistic mid-factorization pivot-search problems: after some
  /// elimination the active submatrix carries fill-in and heterogeneous
  /// row/column counts — the state MA30AD's search loops actually face.
  bool factor_steps(std::int32_t steps);

  /// The current active submatrix, compacted to the remaining rows/columns.
  /// Optional out-params receive the compacted->original index maps.
  SparseMatrix active_submatrix(std::vector<std::int32_t>* row_map = nullptr,
                                std::vector<std::int32_t>* col_map = nullptr) const;

  /// Like factor(), but EVERY pivot is selected by the parallel Markowitz
  /// search (Ma28PivotSearch::search_induction1) over the current active
  /// submatrix: the complete MA28-with-parallelized-MA30AD integration.
  /// Produces factors identical to factor()'s (the parallel search is
  /// sequentially consistent).
  bool factor_parallel(ThreadPool& pool);

  std::int32_t pivots_done() const noexcept {
    return static_cast<std::int32_t>(perm_row_.size());
  }

  long fill_in() const noexcept { return fill_in_; }
  std::int32_t n() const noexcept { return n_; }

  /// Row permutation P (pivot order: perm_row()[k] is the k-th pivot row).
  const std::vector<std::int32_t>& perm_row() const noexcept { return perm_row_; }
  const std::vector<std::int32_t>& perm_col() const noexcept { return perm_col_; }

  /// Solve A x = b using the computed factors.
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  struct EliminationOp {
    std::int32_t target_row;
    std::int32_t pivot_k;  ///< elimination step index
    double factor;
  };

  bool select_pivot(std::int32_t& pr, std::int32_t& pc);
  void eliminate(std::int32_t k, std::int32_t pr, std::int32_t pc);

  std::int32_t n_ = 0;
  LUOptions opts_;
  // Active submatrix: row maps (col -> value) plus per-column row sets so
  // elimination can walk a pivot column without scanning everything.
  std::vector<std::map<std::int32_t, double>> rows_;
  std::vector<std::set<std::int32_t>> col_rows_;
  std::vector<bool> row_active_, col_active_;

  // Factors.
  std::vector<std::int32_t> perm_row_, perm_col_;
  std::vector<std::map<std::int32_t, double>> u_rows_;  ///< per pivot step
  std::vector<double> pivots_;
  std::vector<EliminationOp> l_ops_;
  long fill_in_ = 0;
  bool factored_ = false;
};

}  // namespace wlp::workloads
