// Restarted GMRES(m) with Givens rotations and optional left
// preconditioning (Jacobi or Gauss-Seidel/D+L forward solve). Reference:
// Saad, "Iterative Methods for Sparse Linear Systems", 2nd ed., Alg. 6.9.
#include <cassert>
#include <cmath>
#include <limits>

#include "linalg/dense.hpp"
#include "linalg/solver.hpp"
#include "linalg/solver_internal.hpp"

namespace tags::linalg {

namespace {

/// Left preconditioner application z = M^{-1} r.
class LeftPrecond {
 public:
  LeftPrecond(const CsrMatrix& a, Preconditioner kind) : a_(a), kind_(kind) {
    if (kind_ == Preconditioner::kJacobi || kind_ == Preconditioner::kGaussSeidel) {
      diag_ = a.diagonal();
      for (double d : diag_) {
        if (d == 0.0) {
          kind_ = Preconditioner::kNone;  // cannot precondition safely
          break;
        }
      }
    }
  }

  [[nodiscard]] Preconditioner kind() const noexcept { return kind_; }

  void apply(std::span<const double> r, std::span<double> z) const {
    switch (kind_) {
      case Preconditioner::kNone:
        copy(r, z);
        return;
      case Preconditioner::kJacobi:
        for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] / diag_[i];
        return;
      case Preconditioner::kGaussSeidel: {
        // Forward solve (D + L) z = r, exploiting column-sorted CSR rows.
        for (index_t i = 0; i < a_.rows(); ++i) {
          const auto cs = a_.row_cols(i);
          const auto vs = a_.row_vals(i);
          const std::size_t iu = static_cast<std::size_t>(i);
          double acc = r[iu];
          for (std::size_t k = 0; k < cs.size() && cs[k] < i; ++k) {
            acc -= vs[k] * z[static_cast<std::size_t>(cs[k])];
          }
          z[iu] = acc / diag_[iu];
        }
        return;
      }
    }
  }

 private:
  const CsrMatrix& a_;
  Preconditioner kind_;
  Vec diag_;
};

}  // namespace

SolveResult gmres(const CsrMatrix& a, std::span<const double> b, Vec& x,
                  const SolveOptions& opts) {
  assert(a.rows() == a.cols());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  assert(b.size() == n && x.size() == n);
  const std::uint64_t start_ns = obs::now_ns();
  obs::Span span("linalg/gmres");
  span.attr("n", static_cast<double>(n));
  const int m = std::max(1, opts.restart);

  const LeftPrecond precond(a, opts.precond);
  const char* precond_name = "none";
  if (precond.kind() == Preconditioner::kJacobi) precond_name = "jacobi";
  if (precond.kind() == Preconditioner::kGaussSeidel) precond_name = "gauss-seidel";
  const std::string note =
      std::string("precond=") + precond_name + ",restart=" + std::to_string(m);
  double initial_residual = std::numeric_limits<double>::quiet_NaN();
  int restarts = 0;

  // Preconditioned right-hand side M^{-1} b.
  Vec pb(n);
  precond.apply(b, pb);

  SolveResult res;
  Vec scratch(n);
  Vec r(n), w(n), aw(n);
  std::vector<Vec> v(static_cast<std::size_t>(m) + 1, Vec(n, 0.0));
  DenseMatrix h(static_cast<std::size_t>(m) + 1, static_cast<std::size_t>(m));
  Vec cs(static_cast<std::size_t>(m), 0.0), sn(static_cast<std::size_t>(m), 0.0);
  Vec g(static_cast<std::size_t>(m) + 1, 0.0);

  const auto apply_op = [&](const Vec& in, Vec& out) {
    a.multiply(in, aw);
    precond.apply(aw, out);
  };

  int total_matvecs = 0;
  while (total_matvecs < opts.max_iter) {
    // r = M^{-1}(b - A x).
    apply_op(x, r);
    ++total_matvecs;
    for (std::size_t i = 0; i < n; ++i) r[i] = pb[i] - r[i];
    const double beta = nrm2(r);
    // True (unpreconditioned) residual decides convergence.
    res.residual = a.residual_inf(x, b, scratch);
    if (std::isnan(initial_residual)) initial_residual = res.residual;
    obs::trace_iteration("gmres", total_matvecs, res.residual);
    if (restarts > 0 && obs::tracing_on()) {
      obs::TraceEvent ev;
      ev.name = "gmres.restart";
      ev.num.emplace_back("restart", static_cast<double>(restarts));
      ev.num.emplace_back("matvecs", static_cast<double>(total_matvecs));
      ev.num.emplace_back("residual", res.residual);
      obs::emit(std::move(ev));
    }
    ++restarts;
    if (res.residual <= opts.tol) {
      res.converged = true;
      res.iterations = total_matvecs;
      detail::finalize_solve(res, "gmres", a.rows(), nrm_inf(b), initial_residual,
                             start_ns, note);
      return res;
    }
    // A preconditioned residual of exactly zero with the true residual above
    // tol cannot improve further; a non-finite one never will.
    if (beta == 0.0 || !std::isfinite(res.residual)) break;

    copy(r, v[0]);
    scale(1.0 / beta, v[0]);
    set_zero(g);
    g[0] = beta;

    int k = 0;
    for (; k < m && total_matvecs < opts.max_iter; ++k) {
      const std::size_t ku = static_cast<std::size_t>(k);
      apply_op(v[ku], w);
      ++total_matvecs;
      // Modified Gram-Schmidt.
      for (int j = 0; j <= k; ++j) {
        const std::size_t ju = static_cast<std::size_t>(j);
        h(ju, ku) = dot(w, v[ju]);
        axpy(-h(ju, ku), v[ju], w);
      }
      h(ku + 1, ku) = nrm2(w);
      const double subdiag = h(ku + 1, ku);  // pre-rotation value, for the
                                             // lucky-breakdown test below
      if (h(ku + 1, ku) > 0.0) {
        copy(w, v[ku + 1]);
        scale(1.0 / h(ku + 1, ku), v[ku + 1]);
      }
      // Apply previous Givens rotations to the new column.
      for (int j = 0; j < k; ++j) {
        const std::size_t ju = static_cast<std::size_t>(j);
        const double t = cs[ju] * h(ju, ku) + sn[ju] * h(ju + 1, ku);
        h(ju + 1, ku) = -sn[ju] * h(ju, ku) + cs[ju] * h(ju + 1, ku);
        h(ju, ku) = t;
      }
      // New rotation to annihilate h(k+1, k).
      const double denom = std::hypot(h(ku, ku), h(ku + 1, ku));
      if (denom == 0.0) {
        cs[ku] = 1.0;
        sn[ku] = 0.0;
      } else {
        cs[ku] = h(ku, ku) / denom;
        sn[ku] = h(ku + 1, ku) / denom;
      }
      h(ku, ku) = cs[ku] * h(ku, ku) + sn[ku] * h(ku + 1, ku);
      h(ku + 1, ku) = 0.0;
      const double t = cs[ku] * g[ku];
      g[ku + 1] = -sn[ku] * g[ku];
      g[ku] = t;
      if (std::abs(g[ku + 1]) <= 0.1 * opts.tol * std::max(1.0, nrm_inf(b))) {
        ++k;
        break;  // inner residual estimate small; close out the cycle
      }
      if (subdiag == 0.0) {
        // Lucky breakdown: Krylov space is invariant; solve and exit cycle.
        ++k;
        break;
      }
    }
    // Back-substitute y from the k x k triangular system, update x.
    Vec y(static_cast<std::size_t>(k), 0.0);
    for (int i = k - 1; i >= 0; --i) {
      const std::size_t iu = static_cast<std::size_t>(i);
      double acc = g[iu];
      for (int j = i + 1; j < k; ++j)
        acc -= h(iu, static_cast<std::size_t>(j)) * y[static_cast<std::size_t>(j)];
      y[iu] = acc / h(iu, iu);
    }
    for (int j = 0; j < k; ++j)
      axpy(y[static_cast<std::size_t>(j)], v[static_cast<std::size_t>(j)], x);
  }

  res.residual = a.residual_inf(x, b, scratch);
  res.converged = res.residual <= opts.tol;
  res.iterations = total_matvecs;
  detail::finalize_solve(res, "gmres", a.rows(), nrm_inf(b), initial_residual,
                         start_ns, note);
  return res;
}

}  // namespace tags::linalg
