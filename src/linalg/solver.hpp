// The iterative linear solvers and their common types.
//
// Both solve A x = b for general (square, nonsingular) A in CSR form,
// starting from the caller-supplied initial guess in x. Convergence is
// declared on the max-norm residual ||b - A x||_inf <= tol.
#pragma once

#include <span>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace tags::linalg {

/// Left preconditioner for the Krylov methods.
enum class Preconditioner {
  kNone,
  kJacobi,       ///< scale rows by 1/diag
  kGaussSeidel,  ///< forward solve with D+L (needs nonzero diagonal)
};

struct SolveOptions {
  double tol = 1e-12;       ///< max-norm residual target
  int max_iter = 50000;     ///< sweeps (relaxation) or total inner steps (Krylov)
  double omega = 1.0;       ///< SOR relaxation factor (Gauss-Seidel only)
  int restart = 60;         ///< GMRES restart length
  Preconditioner precond = Preconditioner::kJacobi;  ///< Krylov methods only
};

struct SolveResult {
  bool converged = false;
  int iterations = 0;       ///< sweeps or matrix-vector products performed
  double residual = 0.0;    ///< final ||b - A x||_inf
  /// residual / ||b||_inf (equals `residual` when b = 0).
  double final_relative_residual = 0.0;
  /// True when the residual blew up (non-finite, or grew well past the
  /// initial residual), as opposed to mere stagnation short of tol.
  bool diverged = false;
};

/// Forward sweeps; omega != 1 gives SOR.
[[nodiscard]] SolveResult gauss_seidel(const CsrMatrix& a, std::span<const double> b,
                                       Vec& x, const SolveOptions& opts);

/// Restarted GMRES with optional left preconditioning.
[[nodiscard]] SolveResult gmres(const CsrMatrix& a, std::span<const double> b,
                                Vec& x, const SolveOptions& opts);

}  // namespace tags::linalg
