// LU factorisation with partial pivoting. Used as the reference direct
// solver for small CTMCs and for phase-type moment computations.
#pragma once

#include <span>
#include <vector>

#include "linalg/coo.hpp"
#include "linalg/dense.hpp"

namespace tags::linalg {

/// Largest chain the steady-state solvers factor densely (O(n^3) time,
/// O(n^2) memory). Above it the kAuto chain leaves dense LU out, and the NCD
/// row starts just past it (NcdOptions::min_states).
inline constexpr index_t kDenseSolveMaxStates = 1200;

/// Result of lu_factor(). Holds L and U packed in one matrix plus the pivot
/// permutation; solve() does the forward/back substitution.
class LuFactorization {
 public:
  LuFactorization() = default;

  [[nodiscard]] bool singular() const noexcept { return singular_; }
  [[nodiscard]] std::size_t dim() const noexcept { return lu_.rows(); }

  /// Solve A x = b. Returns the solution; b is untouched.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// In-place variant: x holds b on entry, the solution on exit.
  void solve_in_place(std::span<double> x) const;

  /// Solve A X = B for every column of B at once; B is row-major (n x k)
  /// and is overwritten with X. Much faster than k solve() calls: the
  /// substitution sweeps stream contiguous rows, vectorising across the
  /// right-hand sides, and column chunks run in parallel (each entry's
  /// arithmetic is independent of the chunking, so results are
  /// bit-identical at any thread count).
  void solve_in_place_multi(DenseMatrix& b) const;

  /// Solve A^T x = b (useful for stationary distributions pi A = 0).
  [[nodiscard]] Vec solve_transpose(std::span<const double> b) const;

  /// log|det A|; meaningful only when not singular.
  [[nodiscard]] double log_abs_det() const noexcept;

  friend LuFactorization lu_factor(DenseMatrix a);
  // The batched factorisation (linalg/batch.hpp) eliminates W matrices in
  // lockstep and hands back per-lane scalar factorizations; extraction
  // needs to populate the private state directly.
  friend class BatchLuFactorization;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> piv_;  // piv_[k] = row swapped into position k
  bool singular_ = false;
};

/// Factor a (copied) square matrix. Singular inputs are flagged rather than
/// throwing; callers must check singular() before solve().
[[nodiscard]] LuFactorization lu_factor(DenseMatrix a);

/// Convenience: solve A x = b directly (factors internally).
[[nodiscard]] Vec lu_solve(const DenseMatrix& a, std::span<const double> b);

/// Dense inverse via LU; asserts on singular input. Small matrices only.
[[nodiscard]] DenseMatrix lu_inverse(const DenseMatrix& a);

}  // namespace tags::linalg
