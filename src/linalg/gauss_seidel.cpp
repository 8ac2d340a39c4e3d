#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/solver.hpp"
#include "linalg/solver_internal.hpp"

namespace tags::linalg {

namespace {

/// One Gauss-Seidel sweep of A x = b with relaxation `omega`, updating x
/// in place. Returns the largest absolute update, the solver's cheap
/// stagnation proxy.
double gs_sweep(const CsrMatrix& a, std::span<const double> b, std::span<double> x,
                std::span<const double> diag, double omega) noexcept {
  double max_update = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    const std::size_t ii = static_cast<std::size_t>(i);
    double off = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] != i) off += vs[k] * x[static_cast<std::size_t>(cs[k])];
    }
    const double gs = (b[ii] - off) / diag[ii];
    const double next = (1.0 - omega) * x[ii] + omega * gs;
    max_update = std::max(max_update, std::abs(next - x[ii]));
    x[ii] = next;
  }
  return max_update;
}

}  // namespace

SolveResult gauss_seidel(const CsrMatrix& a, std::span<const double> b, Vec& x,
                         const SolveOptions& opts) {
  assert(a.rows() == a.cols());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  assert(b.size() == n && x.size() == n);
  const std::uint64_t start_ns = obs::now_ns();
  obs::Span span("linalg/gauss_seidel");
  span.attr("n", static_cast<double>(n));

  const Vec diag = a.diagonal();
  const double omega = opts.omega;
  Vec scratch(n);
  const double initial_residual = a.residual_inf(x, b, scratch);
  const double b_norm = nrm_inf(b);
  SolveResult res;

  // A structural zero on the diagonal makes the sweep divide by zero and
  // fill x with inf/NaN that then propagates through every later update.
  // Bail before touching x: the caller sees an explicit divergence instead
  // of a poisoned vector.
  if (const auto zero = std::find(diag.begin(), diag.end(), 0.0); zero != diag.end()) {
    obs::count("numerics.gauss_seidel.zero_diagonal");
    if (obs::tracing_on()) {
      obs::TraceEvent ev;
      ev.name = "numerics.gauss_seidel_zero_diagonal";
      ev.num.emplace_back("row", static_cast<double>(zero - diag.begin()));
      ev.num.emplace_back("n", static_cast<double>(n));
      obs::emit(std::move(ev));
    }
    res.residual = initial_residual;
    detail::finalize_solve(res, "gauss-seidel", a.rows(), b_norm, initial_residual,
                           start_ns, "zero-diagonal");
    res.diverged = true;  // after finalize_solve, which re-derives the flag
    return res;
  }

  for (res.iterations = 0; res.iterations < opts.max_iter; ++res.iterations) {
    const double max_update = gs_sweep(a, b, x, diag, omega);
    // The update norm is only a proxy; confirm with the true residual, but
    // not every sweep (it costs one SpMV).
    const bool check_now = max_update <= opts.tol || (res.iterations & 31) == 31;
    if (check_now) {
      res.residual = a.residual_inf(x, b, scratch);
      obs::trace_iteration("gauss-seidel", res.iterations, res.residual);
      if (res.residual <= opts.tol) {
        res.converged = true;
        ++res.iterations;
        detail::finalize_solve(res, "gauss-seidel", a.rows(), b_norm,
                               initial_residual, start_ns);
        return res;
      }
      if (!std::isfinite(res.residual)) break;  // poisoned: sweeping on cannot help
    }
  }
  res.residual = a.residual_inf(x, b, scratch);
  res.converged = res.residual <= opts.tol;
  detail::finalize_solve(res, "gauss-seidel", a.rows(), b_norm, initial_residual,
                         start_ns);
  return res;
}

}  // namespace tags::linalg
