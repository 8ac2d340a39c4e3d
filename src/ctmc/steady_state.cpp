#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <span>

#include "ctmc/qbd.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace tags::ctmc {

std::string_view to_string(SteadyStateMethod m) noexcept {
  switch (m) {
    case SteadyStateMethod::kAuto: return "auto";
    case SteadyStateMethod::kDenseLu: return "dense-lu";
    case SteadyStateMethod::kGaussSeidel: return "gauss-seidel";
    case SteadyStateMethod::kPower: return "power";
    case SteadyStateMethod::kGmres: return "gmres";
    case SteadyStateMethod::kLevelQbd: return "level-qbd";
    case SteadyStateMethod::kNcdAd: return "ncd-ad";
  }
  return "unknown";
}

namespace {

using linalg::CooMatrix;
using linalg::CsrMatrix;
using linalg::index_t;
using linalg::Vec;

/// Everything the solvers need: the CSR generator, the model's block
/// partition when it supplied one, and exit-rate data cached off the
/// diagonal. Built once per solved matrix, so any representation that
/// yields a CSR generator (classic Ctmc, GeneratorCtmc, a raw matrix, one
/// lane of a batch) solves through the same path.
struct System {
  const CsrMatrix& q;
  const linalg::NcdPartition* ncd;  // nullptr: no aggregation key
  Vec exit;         // -diagonal
  double max_exit;  // largest exit rate

  System(const CsrMatrix& gen, const linalg::NcdPartition* blocks)
      : q(gen), ncd(blocks), exit(gen.diagonal()), max_exit(0.0) {
    for (double& v : exit) {
      v = -v;
      max_exit = std::max(max_exit, v);
    }
  }
  [[nodiscard]] index_t n() const noexcept { return q.rows(); }
  /// Residual and tolerance scale: rates make ||pi Q|| grow with them.
  [[nodiscard]] double scale() const noexcept { return std::max(1.0, max_exit); }
};

/// What an entry's gate found, handed on to its solve.
struct Gated {
  bool pass = true;
  const char* reason = "";  ///< the gate's verdict when !pass
  QbdStructure qbd;
};

/// A method's output before the attempt is checked: pi (empty when the
/// method produced none, in which case `residual` is what gets reported),
/// its iteration count, and dense LU's Hager condition estimate.
struct Raw {
  Vec pi;
  int iterations = 0;
  double residual = 0.0;
  double condition = 0.0;
};

struct SolveInput {
  const System& sys;
  const SteadyStateOptions& opts;
  const Gated& gated;
  const Vec* guess;  ///< warm start; nullptr: cold
  obs::Span& span;
};

using LaneSink = std::function<void(std::size_t lane, Raw raw)>;

/// One row of the kAuto chain. kAuto walks the rows in order; an explicit
/// opts.method runs the one row for that method with its gate open.
struct Entry {
  SteadyStateMethod method = SteadyStateMethod::kAuto;
  const char* span = "";
  /// kAuto only: whether the row belongs to this solve's chain at all (a
  /// chain switch, a size window, a partition to aggregate on); nullptr:
  /// always. Rows outside it leave no attempt.
  bool (*in_chain)(const System& sys, const SteadyStateOptions& opts) = nullptr;
  /// Profitability gate; nullptr for none. A declined gate is recorded as
  /// an attempt carrying its reason. `open` is set for an explicit request,
  /// which skips the profitability checks: an open gate declines only a
  /// chain the method cannot run on at all, and the request ends there.
  void (*gate)(const System& sys, const SteadyStateOptions& opts, bool open,
               Gated& out) = nullptr;
  /// The gate reads only the sparsity pattern, so one evaluation serves
  /// every lane of a batch.
  bool pattern_gate = false;
  /// Acceptance: the recomputed residual must be <= this bound times
  /// max(1, max exit rate); 0 means opts.tol times `tol_slack`.
  double fixed_bound = 0.0;
  double tol_slack = 1.0;
  /// The result stays a candidate for later warm starts and for the answer
  /// of a chain that nothing passed.
  bool last_resort = false;
  Raw (*solve)(const SolveInput& in) = nullptr;
  /// Solves every lane of a batch at once, handing each lane's Raw to the
  /// sink in lane order; nullptr for none. Returns false, touching no lane,
  /// when the batch is too large or the structure does not fit.
  bool (*batch)(const linalg::CsrValueBatch& vals, const Gated& gated,
                const SteadyStateOptions& opts, const LaneSink& sink) = nullptr;
  /// kAuto counters (nullptr: none): gate passed, accepted, fell through,
  /// gate declined.
  const char* on_run = nullptr;
  const char* on_accept = nullptr;
  const char* on_fallthrough = nullptr;
  const char* on_decline = nullptr;
};

void count(const char* name) {
  if (name != nullptr) obs::count(name);
}

/// ||pi Q||_inf via y = Q^T pi.
double balance_residual(const CsrMatrix& qt, std::span<const double> pi, Vec& scratch) {
  qt.multiply(pi, scratch);
  return linalg::nrm_inf(scratch);
}

/// Stamp the result with an independent certificate: the residual is
/// recomputed from Q^T and pi (never trusted from the solver), entries are
/// checked finite, and probability mass is re-summed with compensation.
/// `condition` carries the dense-LU path's Hager estimate (0 elsewhere).
void certify_result(SteadyStateResult& res, const CsrMatrix& qt, const System& sys,
                    const SteadyStateOptions& opts, double condition) {
  if (!opts.certify) return;
  const obs::Span span("solve/certify");
  linalg::CertifyOptions c = opts.certify_opts;
  c.residual_bound *= sys.scale();
  const Vec zero(res.pi.size(), 0.0);
  res.certificate = linalg::certify_solution(qt, res.pi, zero, c, condition);
}

/// The acceptance test the kAuto chain escalates on: converged by the
/// entry's own bound AND certified (when certification is enabled).
bool accepted(const SteadyStateResult& res, const SteadyStateOptions& opts) {
  return res.converged && (!opts.certify || res.certificate.ok());
}

/// Check a method's output the same way for every entry and every lane:
/// recompute the balance residual from the chain's own transpose, apply the
/// entry's acceptance bound, and certify.
SteadyStateResult check(const Entry& e, Raw raw, const System& sys,
                        const SteadyStateOptions& opts) {
  SteadyStateResult res;
  res.method_used = e.method;
  res.iterations = raw.iterations;
  res.residual = raw.residual;
  if (raw.pi.size() != static_cast<std::size_t>(sys.n())) return res;  // no solution
  res.pi = std::move(raw.pi);
  const CsrMatrix& qt = sys.q.transpose_cache();
  Vec scratch(res.pi.size());
  res.residual = balance_residual(qt, res.pi, scratch);
  const double bound = e.fixed_bound > 0.0 ? e.fixed_bound * sys.scale()
                                           : opts.tol * sys.scale() * e.tol_slack;
  res.converged = std::isfinite(res.residual) && res.residual <= bound;
  certify_result(res, qt, sys, opts, raw.condition);
  return res;
}

[[nodiscard]] SteadyStateAttempt attempt_of(const SteadyStateResult& res) {
  SteadyStateAttempt a;
  a.method = res.method_used;
  a.iterations = res.iterations;
  a.residual = res.residual;
  a.converged = res.converged;
  return a;
}

/// Run one entry: timer, span, solve, check.
SteadyStateResult attempt(const Entry& e, const System& sys, const SteadyStateOptions& opts,
                          const Gated& gated, const Vec* guess) {
  const obs::ScopedTimer timer(to_string(e.method));
  obs::Span span(e.span);
  span.attr("n", static_cast<double>(sys.n()));
  SteadyStateResult res = check(e, e.solve({sys, opts, gated, guess, span}), sys, opts);
  span.attr("iterations", static_cast<double>(res.iterations));
  span.attr("residual", res.residual);
  span.attr("converged", res.converged ? 1.0 : 0.0);
  return res;
}

/// The SolveRecord of one finished steady-state solve, scalar or batch lane.
void record(const SteadyStateResult& res, const System& sys, std::uint64_t start_ns) {
  if (!obs::metrics_on()) return;
  obs::count("ctmc.steady_state.solves");
  obs::SolveRecord rec;
  rec.context = "steady_state";
  rec.method = to_string(res.method_used);
  rec.n = sys.n();
  rec.iterations = res.iterations;
  rec.residual = res.residual;
  rec.relative_residual = res.residual / sys.scale();
  rec.converged = res.converged;
  rec.diverged = !std::isfinite(res.residual);
  rec.certified = res.certificate.ok();
  rec.condition = res.certificate.condition;
  rec.wall_ms = static_cast<double>(obs::now_ns() - start_ns) / 1e6;
  // Method names joined by commas, gate-declined entries suffixed
  // "[gate:<reason>]".
  for (const SteadyStateAttempt& a : res.attempts) {
    if (!rec.attempts.empty()) rec.attempts += ',';
    rec.attempts += to_string(a.method);
    if (!a.gate_reason.empty()) {
      rec.attempts += "[gate:";
      rec.attempts += a.gate_reason;
      rec.attempts += ']';
    }
  }
  obs::record_solve(std::move(rec));
}

/// A failed attempt whose fallback event waits for the next method that
/// actually runs.
struct Fallback {
  SteadyStateMethod from;
  double residual;
  const char* reason;  ///< "residual" or "certification"
};

void trace_fallback(const Fallback& f, SteadyStateMethod to) {
  obs::count("ctmc.steady_state.fallbacks");
  if (std::string_view(f.reason) != "residual") {
    obs::count("numerics.certify.escalations");
  }
  if (!obs::tracing_on()) return;
  obs::TraceEvent ev;
  ev.name = "steady_state.fallback";
  ev.str.emplace_back("from", std::string(to_string(f.from)));
  ev.str.emplace_back("to", std::string(to_string(to)));
  ev.str.emplace_back("reason", f.reason);
  ev.num.emplace_back("residual", f.residual);
  obs::emit(std::move(ev));
}

/// Where a solve stands in the chain: the next entry to try, the attempts
/// so far and a fallback not yet traced. A batch lane the batched entry did
/// not accept resumes the scalar loop from its state.
struct ChainState {
  std::size_t next = 0;
  std::vector<SteadyStateAttempt> attempts;
  std::optional<Fallback> pending;

  /// Book a finished attempt. Returns true when it ends the solve: always
  /// for an explicit request, on acceptance in kAuto.
  bool settle(const Entry& e, const SteadyStateResult& res, const SteadyStateOptions& opts,
              std::size_t index) {
    attempts.push_back(attempt_of(res));
    if (opts.method != SteadyStateMethod::kAuto) return true;
    if (accepted(res, opts)) {
      count(e.on_accept);
      return true;
    }
    count(e.on_fallthrough);
    pending = Fallback{e.method, res.residual, res.converged ? "certification" : "residual"};
    next = index + 1;
    return false;
  }

  void decline(const Entry& e, const char* reason, std::size_t index) {
    SteadyStateAttempt a;
    a.method = e.method;
    a.gate_reason = reason;
    attempts.push_back(std::move(a));
    next = index + 1;
  }
};

// --- the methods ----------------------------------------------------------

Vec initial_vector(const System& sys, const Vec* guess) {
  const std::size_t n = static_cast<std::size_t>(sys.n());
  if (guess != nullptr && guess->size() == n) {
    Vec pi = *guess;
    for (double& v : pi) v = std::max(v, 0.0);
    if (linalg::normalize_l1(pi) > 0.0) return pi;
  }
  return Vec(n, 1.0 / static_cast<double>(n));
}

Raw solve_dense_lu(const SolveInput& in) {
  const std::size_t n = static_cast<std::size_t>(in.sys.n());
  // A = Q^T with the last balance equation replaced by sum(pi) = 1.
  linalg::DenseMatrix a(n, n);
  const CsrMatrix& q = in.sys.q;
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      a(static_cast<std::size_t>(cs[k]), static_cast<std::size_t>(i)) = vs[k];
    }
  }
  for (std::size_t j = 0; j < n; ++j) a(n - 1, j) = 1.0;
  const double a_norm1 = in.opts.certify ? linalg::norm1(a) : 0.0;
  Vec b(n, 0.0);
  b[n - 1] = 1.0;
  const linalg::LuFactorization f = linalg::lu_factor(std::move(a));
  if (f.singular()) return {};
  Raw out;
  // The direct path is the one place a condition estimate is nearly free:
  // Hager's iteration is a handful of O(n^2) triangular solves on a
  // factorization we already hold.
  out.condition = in.opts.certify ? linalg::condest_1(a_norm1, f) : 0.0;
  out.pi = f.solve(b);
  for (double& v : out.pi) v = std::max(v, 0.0);
  linalg::normalize_l1(out.pi);
  out.iterations = 1;
  return out;
}

Raw solve_gauss_seidel(const SolveInput& in) {
  const System& sys = in.sys;
  const CsrMatrix& qt = sys.q.transpose_cache();
  const Vec& exit = sys.exit;
  const double tol = in.opts.tol * sys.scale();
  Raw out;
  Vec pi = initial_vector(sys, in.guess);
  Vec scratch(pi.size());
  for (out.iterations = 0; out.iterations < in.opts.max_iter; ++out.iterations) {
    // One sweep of pi_j = sum_{i != j} pi_i q_ij / exit_j.
    for (index_t j = 0; j < qt.rows(); ++j) {
      const std::size_t ju = static_cast<std::size_t>(j);
      if (exit[ju] == 0.0) continue;  // absorbing; caller should have checked
      const auto cs = qt.row_cols(j);
      const auto vs = qt.row_vals(j);
      double inflow = 0.0;
      for (std::size_t k = 0; k < cs.size(); ++k) {
        if (cs[k] != j) inflow += vs[k] * pi[static_cast<std::size_t>(cs[k])];
      }
      pi[ju] = inflow / exit[ju];
    }
    linalg::normalize_l1(pi);
    if ((out.iterations & 15) == 15 || out.iterations + 1 == in.opts.max_iter) {
      const double residual = balance_residual(qt, pi, scratch);
      obs::trace_iteration("steady.gauss-seidel", out.iterations, residual);
      if (residual <= tol || !std::isfinite(residual)) {
        ++out.iterations;
        break;
      }
    }
  }
  out.pi = std::move(pi);
  return out;
}

Raw solve_power(const SolveInput& in) {
  const System& sys = in.sys;
  const CsrMatrix& qt = sys.q.transpose_cache();
  // Strictly greater than the max exit rate so the DTMC is aperiodic.
  const double lambda = sys.max_exit * 1.05 + 1e-12;
  const double tol = in.opts.tol * sys.scale();

  // Pt = (I + Q/lambda)^T assembled directly from Q^T.
  CooMatrix coo(qt.rows(), qt.cols());
  for (index_t i = 0; i < qt.rows(); ++i) {
    const auto cs = qt.row_cols(i);
    const auto vs = qt.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) coo.add(i, cs[k], vs[k] / lambda);
    coo.add(i, i, 1.0);
  }
  const CsrMatrix pt = CsrMatrix::from_coo(coo);

  Raw out;
  Vec pi = initial_vector(sys, in.guess);
  Vec next(pi.size());
  Vec scratch(pi.size());
  for (out.iterations = 0; out.iterations < in.opts.max_iter; ++out.iterations) {
    pt.multiply(pi, next);
    linalg::normalize_l1(next);
    pi.swap(next);
    if ((out.iterations & 15) == 15 || out.iterations + 1 == in.opts.max_iter) {
      const double residual = balance_residual(qt, pi, scratch);
      obs::trace_iteration("steady.power", out.iterations, residual);
      if (residual <= tol || !std::isfinite(residual)) {
        ++out.iterations;
        break;
      }
    }
  }
  out.pi = std::move(pi);
  return out;
}

Raw solve_gmres(const SolveInput& in) {
  const std::size_t n = static_cast<std::size_t>(in.sys.n());
  const CsrMatrix& q = in.sys.q;
  // M = Q^T with the last row replaced by ones; M x = e_{n-1}.
  CooMatrix coo(static_cast<index_t>(n), static_cast<index_t>(n));
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] == static_cast<index_t>(n) - 1) continue;  // replaced row
      coo.add(cs[k], i, vs[k]);
    }
  }
  for (index_t j = 0; j < static_cast<index_t>(n); ++j)
    coo.add(static_cast<index_t>(n) - 1, j, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);

  Vec b(n, 0.0);
  b[n - 1] = 1.0;
  Raw out;
  out.pi = initial_vector(in.sys, in.guess);
  linalg::SolveOptions sopts;
  sopts.tol = in.opts.tol * in.sys.scale();  // relative, like the balance check
  sopts.max_iter = in.opts.max_iter;
  sopts.restart = 120;
  // The D+L forward solve is the decisive preconditioner for these
  // nearly singular balance systems (plain Jacobi stagnates).
  sopts.precond = linalg::Preconditioner::kGaussSeidel;
  out.iterations = linalg::gmres(m, b, out.pi, sopts).iterations;
  for (double& v : out.pi) v = std::max(v, 0.0);
  linalg::normalize_l1(out.pi);
  return out;
}

/// Direct solve on the generator's BFS level (QBD) structure. Exact like
/// dense LU but with per-level dense blocks, so cost scales with the level
/// width, not the chain size. A structural failure (edge skipping a level,
/// singular Schur complement) yields no pi and an infinite residual.
Raw solve_level_qbd(const SolveInput& in) {
  const QbdStructure& s = in.gated.qbd;
  in.span.attr("max_block", static_cast<double>(s.max_block));
  Raw out;
  out.residual = std::numeric_limits<double>::infinity();
  Vec pi;
  if (s.usable() && qbd_steady_state(in.sys.q, s, pi)) {
    out.pi = std::move(pi);
    out.iterations = 1;
  }
  return out;
}

/// Aggregation-disaggregation on the model's partition, within the same
/// work budget as the sweeps (opts.max_iter, in sweep-equivalents); the
/// solver's own convergence claim is re-checked like every other method's.
Raw solve_ncd_ad(const SolveInput& in) {
  assert(in.sys.ncd != nullptr);  // the gate declines a chain without one
  Raw out;
  out.residual = std::numeric_limits<double>::infinity();
  linalg::NcdSolveOptions so;
  so.tol = in.opts.tol * in.sys.scale();  // relative, like the sweeps
  so.max_sweeps = in.opts.max_iter;
  if (in.guess != nullptr) so.initial_guess = *in.guess;
  linalg::NcdSolveResult r = linalg::ncd_steady_state(in.sys.q, *in.sys.ncd, so);
  if (!r.pi.empty()) {
    out.pi = std::move(r.pi);
    out.iterations = r.outer;
  }
  return out;
}

// --- batched solves -------------------------------------------------------

bool batch_level_qbd(const linalg::CsrValueBatch& vals, const Gated& gated,
                     const SteadyStateOptions& /*opts*/, const LaneSink& sink) {
  const QbdStructure& s = gated.qbd;
  // Detection and the elimination plan are pattern-only, so one detect and
  // one plan serve every lane.
  if (!s.usable() || s.factor_doubles * vals.width() > QbdOptions{}.max_factor_doubles) {
    return false;
  }
  const QbdPlan plan = make_qbd_plan(vals.pattern(), s);
  if (!plan.ok) return false;
  std::vector<Vec> pis(vals.width());
  const std::vector<unsigned char> ok = qbd_steady_state_batch(s, plan, vals, pis);
  for (std::size_t b = 0; b < vals.width(); ++b) {
    Raw raw;
    raw.residual = std::numeric_limits<double>::infinity();
    if (ok[b]) {
      raw.pi = std::move(pis[b]);
      raw.iterations = 1;
    }
    sink(b, std::move(raw));
  }
  return true;
}

/// Storage cap for the batched dense factorisation (doubles). Above this
/// the lanes solve one by one through the scalar path instead — same bits,
/// just without the lockstep speedup.
constexpr std::size_t kDenseBatchCapDoubles = 16ull << 20;  // 128 MiB

bool batch_dense_lu(const linalg::CsrValueBatch& vals, const Gated& /*gated*/,
                    const SteadyStateOptions& opts, const LaneSink& sink) {
  const CsrMatrix& pattern = vals.pattern();
  const std::size_t n = static_cast<std::size_t>(pattern.rows());
  const std::size_t w = vals.width();
  if (n * n * w > kDenseBatchCapDoubles) return false;
  obs::Span span("solve/dense-lu-batch");
  span.attr("n", static_cast<double>(n));
  span.attr("width", static_cast<double>(w));
  // A_b = Q_b^T with the last balance row replaced by ones, assembled
  // lane-interleaved straight from the shared pattern.
  std::vector<double> a(n * n * w, 0.0);
  const double* v = vals.values().data();
  const index_t* cbase = pattern.row_cols(0).data();
  for (index_t i = 0; i < pattern.rows(); ++i) {
    const auto cs = pattern.row_cols(i);
    const std::size_t base = static_cast<std::size_t>(cs.data() - cbase);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      double* dst =
          a.data() + (static_cast<std::size_t>(cs[k]) * n + static_cast<std::size_t>(i)) * w;
      const double* ev = v + (base + k) * w;
      for (std::size_t b = 0; b < w; ++b) dst[b] = ev[b];
    }
  }
  double* last = a.data() + (n - 1) * n * w;
  for (std::size_t j = 0; j < n * w; ++j) last[j] = 1.0;
  // Per-lane ||A||_1 before factoring, in linalg::norm1's exact
  // accumulation order (column-major sums, rows ascending).
  std::vector<double> a_norm1(w, 0.0);
  if (opts.certify) {
    std::vector<double> col(w);
    for (std::size_t j = 0; j < n; ++j) {
      std::fill(col.begin(), col.end(), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double* e = a.data() + (i * n + j) * w;
        for (std::size_t b = 0; b < w; ++b) col[b] += std::abs(e[b]);
      }
      for (std::size_t b = 0; b < w; ++b) a_norm1[b] = std::max(a_norm1[b], col[b]);
    }
  }
  linalg::BatchLuFactorization f;
  f.factor_packed(n, w, std::move(a));
  for (std::size_t b = 0; b < w; ++b) {
    Raw raw;
    if (!f.singular(b)) {
      // The extracted scalar factorization is bit-identical to lu_factor's,
      // so the scalar substitution and Hager condition code run verbatim.
      const linalg::LuFactorization lf = f.extract_lane(b);
      raw.condition = opts.certify ? linalg::condest_1(a_norm1[b], lf) : 0.0;
      Vec rhs(n, 0.0);
      rhs[n - 1] = 1.0;
      raw.pi = lf.solve(rhs);
      for (double& x : raw.pi) x = std::max(x, 0.0);
      linalg::normalize_l1(raw.pi);
      raw.iterations = 1;
    }
    sink(b, std::move(raw));
  }
  return true;
}

// --- the table ------------------------------------------------------------

void gate_level_qbd(const System& sys, const SteadyStateOptions& opts, bool open,
                    Gated& out) {
  // An explicit request keeps only the structural requirement (connected
  // block tridiagonal) and the memory cap.
  QbdOptions qo;
  qo.max_block =
      open && opts.structured_max_block <= 0 ? sys.n() : opts.structured_max_block;
  out.qbd = detect_qbd(sys.q, qo);
  out.pass = out.qbd.usable();
  out.reason = out.qbd.gate_reason;
}

/// Structural only: it reads the partition's shape, never a rate, so its
/// verdict holds across every rebind of a sweep. An explicit request needs
/// only a partition (kAuto's chain has one by `in_chain`); ncd_steady_state
/// itself enforces >= 2 blocks.
void gate_ncd_ad(const System& sys, const SteadyStateOptions& opts, bool open,
                 Gated& out) {
  const linalg::NcdPartition* p = sys.ncd;
  const linalg::NcdOptions& o = opts.ncd_opts;
  if (p == nullptr) {
    out.reason = "no-partition";
  } else if (!open) {
    if (p->n_blocks() < 2) {
      out.reason = "one-block";
    } else if (static_cast<index_t>(p->n_blocks()) > o.max_blocks) {
      out.reason = "too-many-blocks";
    } else if (static_cast<double>(p->max_block) >
               o.max_block_fraction * static_cast<double>(sys.n())) {
      out.reason = "dominant-block";
    }
  }
  out.pass = *out.reason == '\0';
}

constexpr double kDirectBound = 1e-6;

// Order is the kAuto chain. Structured fast paths first (level-QBD, then
// aggregation-disaggregation on the model's queue-length blocks for the
// chains the QBD bandwidth guard rejects), dense LU for small chains, then
// the iterative last resorts: Gauss-Seidel, GMRES and power iteration, each
// warm-started from the best of those before it.
constexpr std::array<Entry, 6> kChain{{
    {.method = SteadyStateMethod::kLevelQbd,
     .span = "solve/level-qbd",
     .in_chain = [](const System&, const SteadyStateOptions& o) { return o.structured; },
     .gate = gate_level_qbd,
     .pattern_gate = true,
     .fixed_bound = kDirectBound,
     .solve = solve_level_qbd,
     .batch = batch_level_qbd,
     .on_accept = "ctmc.steady_state.structured.used",
     .on_fallthrough = "ctmc.steady_state.structured.fallthrough",
     .on_decline = "ctmc.steady_state.structured.declined"},
    // Chains without a partition, or below ncd_opts.min_states, leave no
    // attempt-list trace.
    {.method = SteadyStateMethod::kNcdAd,
     .span = "solve/ncd-ad",
     .in_chain = [](const System& sys, const SteadyStateOptions& o) {
       return o.ncd && sys.ncd != nullptr && sys.n() >= o.ncd_opts.min_states;
     },
     .gate = gate_ncd_ad,
     .solve = solve_ncd_ad,
     .on_run = "ncd.gate.accepts",
     .on_accept = "ncd.solves",
     .on_fallthrough = "ncd.fallthroughs",
     .on_decline = "ncd.gate.rejects"},
    {.method = SteadyStateMethod::kDenseLu,
     .span = "solve/dense-lu",
     .in_chain = [](const System& sys, const SteadyStateOptions&) {
       return sys.n() <= linalg::kDenseSolveMaxStates;
     },
     .fixed_bound = kDirectBound,
     .solve = solve_dense_lu,
     .batch = batch_dense_lu},
    {.method = SteadyStateMethod::kGaussSeidel,
     .span = "solve/gauss-seidel",
     .last_resort = true,
     .solve = solve_gauss_seidel},
    // GMRES's own target is opts.tol; it is accepted with 10x slack.
    {.method = SteadyStateMethod::kGmres,
     .span = "solve/gmres",
     .tol_slack = 10.0,
     .last_resort = true,
     .solve = solve_gmres},
    {.method = SteadyStateMethod::kPower,
     .span = "solve/power",
     .last_resort = true,
     .solve = solve_power},
}};

/// The entries a solve walks: the whole chain for kAuto, otherwise the one
/// entry of the requested method.
std::span<const Entry> entries_for(SteadyStateMethod m) {
  if (m == SteadyStateMethod::kAuto) return kChain;
  const auto it = std::find_if(kChain.begin(), kChain.end(),
                               [m](const Entry& e) { return e.method == m; });
  return {&*it, 1};
}

/// Whether the entry takes part in this solve (explicit requests always).
bool applies(const Entry& e, const System& sys, const SteadyStateOptions& opts) {
  return opts.method != SteadyStateMethod::kAuto || e.in_chain == nullptr ||
         e.in_chain(sys, opts);
}

/// The warm start for the next last resort: the lowest residual so far,
/// the earliest on ties.
const Vec* best_guess(const std::vector<SteadyStateResult>& tried) {
  const SteadyStateResult* best = nullptr;
  for (const SteadyStateResult& r : tried) {
    if (best == nullptr || r.residual < best->residual) best = &r;
  }
  return best ? &best->pi : nullptr;
}

/// Walk the chain from `st.next`. The kAuto chain escalates on the
/// *certificate*, not on the raw residual alone: a method that converged by
/// its own bookkeeping but failed the independent check (non-finite
/// entries, mass drift, hopeless condition estimate) falls through to the
/// next entry exactly like a divergence.
SteadyStateResult run_chain(const System& sys, const SteadyStateOptions& opts, ChainState st) {
  const bool chain = opts.method == SteadyStateMethod::kAuto;
  const std::span<const Entry> entries = entries_for(opts.method);
  std::vector<SteadyStateResult> tried;  // last-resort results, in order
  for (std::size_t i = st.next; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (!applies(e, sys, opts)) continue;
    Gated gated;
    if (e.gate != nullptr) {
      e.gate(sys, opts, !chain, gated);
      if (!gated.pass) {
        st.decline(e, gated.reason, i);
        if (chain) {
          count(e.on_decline);
          continue;
        }
        SteadyStateResult res;  // an explicit request the chain cannot take
        res.method_used = e.method;
        res.residual = std::numeric_limits<double>::infinity();
        res.attempts = std::move(st.attempts);
        return res;
      }
    }
    if (chain) count(e.on_run);
    if (st.pending) {
      trace_fallback(*st.pending, e.method);
      st.pending.reset();
    }
    const Vec* guess = tried.empty() ? (opts.initial_guess ? &*opts.initial_guess : nullptr)
                                     : best_guess(tried);
    SteadyStateResult res = attempt(e, sys, opts, gated, guess);
    if (st.settle(e, res, opts, i)) {
      res.attempts = std::move(st.attempts);
      return res;
    }
    if (e.last_resort) tried.push_back(std::move(res));
  }
  // The whole chain is exhausted and nothing passed: the caller gets the
  // earliest last resort whose residual is <= every later one's, flagged.
  // Uncertified results are visible, never silent.
  obs::count("numerics.steady_state.uncertified_returns");
  assert(!tried.empty());  // the last resorts always run in kAuto
  const auto none_later_lower = [&](std::size_t i) {
    return std::all_of(tried.begin() + i + 1, tried.end(), [&](const SteadyStateResult& r) {
      return tried[i].residual <= r.residual;
    });
  };
  std::size_t pick = 0;
  while (pick + 1 < tried.size() && !none_later_lower(pick)) ++pick;
  SteadyStateResult res = std::move(tried[pick]);
  res.attempts = std::move(st.attempts);
  return res;
}

/// The public solve, resumable: a batch lane enters with the state its
/// batched attempt left.
SteadyStateResult solve(const CsrMatrix& q, const linalg::NcdPartition* blocks,
                        const SteadyStateOptions& opts, ChainState st) {
  assert(q.rows() > 0 && q.rows() == q.cols());
  obs::Span root_span("ctmc/steady_state");
  root_span.attr("n", static_cast<double>(q.rows()));
  root_span.attr("method", to_string(opts.method));
  const obs::ScopedTimer timer("ctmc/steady_state");
  const std::uint64_t start_ns = obs::now_ns();
  if (opts.initial_guess) {
    obs::count(opts.initial_guess->size() == static_cast<std::size_t>(q.rows())
                   ? "ctmc.steady_state.warm_start.hits"
                   : "ctmc.steady_state.warm_start.misses");
  }
  const System sys(q, blocks);
  SteadyStateResult res = run_chain(sys, opts, std::move(st));
  root_span.attr("method_used", to_string(res.method_used));
  record(res, sys, start_ns);
  return res;
}

/// Run the chain's leading batched entries across every lane at once. A
/// lane an entry finishes lands in `out`; every other lane keeps in
/// `lanes[b]` the state the scalar loop resumes from.
void run_batched(const linalg::CsrValueBatch& vals, const linalg::NcdPartition* blocks,
                 const SteadyStateOptions& opts, std::vector<SteadyStateResult>& out,
                 std::vector<ChainState>& lanes, std::vector<unsigned char>& done) {
  const System shape(vals.pattern(), blocks);
  const std::span<const Entry> entries = entries_for(opts.method);
  std::size_t i = 0;
  for (; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (!applies(e, shape, opts)) continue;
    if (e.batch == nullptr || (e.gate != nullptr && !e.pattern_gate)) break;
    Gated gated;
    if (e.gate != nullptr) {
      e.gate(shape, opts, opts.method != SteadyStateMethod::kAuto, gated);
      if (opts.method == SteadyStateMethod::kAuto && !gated.pass) {
        for (ChainState& l : lanes) {
          count(e.on_decline);
          l.decline(e, gated.reason, i);
        }
        continue;
      }
    }
    const bool ran = e.batch(vals, gated, opts, [&](std::size_t b, Raw raw) {
      const std::uint64_t lane_start = obs::now_ns();
      const CsrMatrix lane_q = vals.lane_matrix(b);
      const System sys(lane_q, blocks);
      SteadyStateResult res = check(e, std::move(raw), sys, opts);
      if (!lanes[b].settle(e, res, opts, i)) return;
      res.attempts = std::move(lanes[b].attempts);
      // Wall time covers the lane's own finishing work; the shared
      // factorisation is amortised across the batch and not attributed.
      record(res, sys, lane_start);
      out[b] = std::move(res);
      done[b] = 1;
    });
    if (ran) return;
    break;
  }
  for (ChainState& l : lanes) l.next = i;
}

}  // namespace

SteadyStateResult steady_state(const linalg::CsrMatrix& q, const SteadyStateOptions& opts,
                               const linalg::NcdPartition* blocks) {
  return solve(q, blocks, opts, {});
}

SteadyStateResult steady_state(const Ctmc& chain, const SteadyStateOptions& opts) {
  assert(chain.n_states() > 0);
  return steady_state(chain.generator(), opts);
}

std::vector<SteadyStateResult> steady_state_batch(const linalg::CsrValueBatch& vals,
                                                  const SteadyStateOptions& opts,
                                                  const linalg::NcdPartition* blocks) {
  const std::size_t w = vals.width();
  std::vector<SteadyStateResult> out(w);
  if (w == 0) return out;
  const CsrMatrix& pattern = vals.pattern();
  assert(pattern.rows() > 0 && pattern.rows() == pattern.cols());
  obs::Span root_span("ctmc/steady_state_batch");
  root_span.attr("n", static_cast<double>(pattern.rows()));
  root_span.attr("width", static_cast<double>(w));
  root_span.attr("method", to_string(opts.method));

  std::vector<ChainState> lanes(w);
  std::vector<unsigned char> done(w, 0);
  if (w > 1) run_batched(vals, blocks, opts, out, lanes, done);

  // Lanes in ascending order, warm-start chained like consecutive points of
  // a scalar sweep: lane b starts from the last converged lane before it.
  // Direct solves ignore the guess, but a lane that goes on to an iterative
  // entry must see the guess the scalar sequence would have carried.
  std::optional<Vec> guess = opts.initial_guess;
  for (std::size_t b = 0; b < w; ++b) {
    if (!done[b]) {
      const CsrMatrix lane_q = vals.lane_matrix(b);
      SteadyStateOptions lo = opts;
      lo.initial_guess = guess;
      out[b] = solve(lane_q, blocks, lo, std::move(lanes[b]));
    }
    if (out[b].converged) guess = out[b].pi;
  }
  return out;
}

void reconcile_warm_start(SteadyStateOptions& opts, index_t n_states) {
  if (!opts.initial_guess) return;
  if (opts.initial_guess->size() != static_cast<std::size_t>(n_states)) {
    opts.initial_guess.reset();
    obs::count("ctmc.steady_state.warm_start.cleared");
  }
}

void WarmStartState::reconcile(index_t n_states) {
  const bool had_guess = opts.initial_guess.has_value();
  reconcile_warm_start(opts, n_states);
  if (had_guess && !opts.initial_guess) ++cleared;
  if (opts.initial_guess) {
    ++hits;
  } else {
    ++misses;
  }
}

void WarmStartState::accept(const SteadyStateResult& r) {
  if (!r.converged || (opts.certify && !r.certificate.ok())) ++uncertified;
  if (r.converged) opts.initial_guess = r.pi;
}

void WarmStartState::merge(const WarmStartState& other) noexcept {
  hits += other.hits;
  misses += other.misses;
  cleared += other.cleared;
  uncertified += other.uncertified;
}

}  // namespace tags::ctmc
