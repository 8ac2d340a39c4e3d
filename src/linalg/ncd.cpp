#include "linalg/ncd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/vector_ops.hpp"
#include "obs/obs.hpp"

namespace tags::linalg {

namespace {

/// Outer passes without a new lowest residual after which the iteration is
/// declared stagnant and handed back unconverged.
constexpr int kStallPasses = 50;

/// The coarse generator on blocks, row-major, with its envelope: lo[i] is
/// the first non-zero column left of the diagonal in row i, top[j] the
/// first non-zero row above the diagonal in column j. Only off-diagonal
/// entries are stored; the diagonal is implied.
class CoarseChain {
 public:
  explicit CoarseChain(std::size_t nb) : nb_(nb), a_(nb * nb), lo_(nb), top_(nb) {}

  void clear() {
    std::fill(a_.begin(), a_.end(), 0.0);
    for (std::size_t i = 0; i < nb_; ++i) lo_[i] = top_[i] = i;
  }

  void add(std::size_t from, std::size_t to, double rate) {
    a_[from * nb_ + to] += rate;
    if (to < from) lo_[from] = std::min(lo_[from], to);
    if (from < to) top_[to] = std::min(top_[to], from);
  }

  /// Stationary vector by Grassmann-Taksar-Heyman elimination. It forms no
  /// differences, so it stays accurate however stiff the coarse chain, and
  /// it works inside the envelope, so the banded coarse chain of a
  /// queue-length partition costs about one flat sweep. Returns false when
  /// the coarse chain is reducible. `flops` accumulates the multiply-adds.
  bool solve(Vec& xi, std::size_t& flops) {
    for (std::size_t k = nb_ - 1; k > 0; --k) {
      double* rk = a_.data() + k * nb_;
      const std::size_t lo = lo_[k];
      double s = 0.0;
      for (std::size_t j = lo; j < k; ++j) s += rk[j];
      if (!(s > 0.0)) return false;
      rk[k] = s;  // the diagonal slot keeps the censored exit rate
      for (std::size_t i = top_[k]; i < k; ++i) {
        double* ri = a_.data() + i * nb_;
        const double f = ri[k] / s;
        if (f == 0.0) continue;
        for (std::size_t j = lo; j < k; ++j) ri[j] += f * rk[j];
        lo_[i] = std::min(lo_[i], lo);  // fill-in stays inside the envelope
        flops += k - lo;
      }
      for (std::size_t j = lo; j < k; ++j) top_[j] = std::min(top_[j], top_[k]);
      flops += 2 * (k - lo);
    }
    xi[0] = 1.0;
    for (std::size_t k = 1; k < nb_; ++k) {
      double acc = 0.0;
      for (std::size_t i = top_[k]; i < k; ++i) acc += xi[i] * a_[i * nb_ + k];
      xi[k] = acc / a_[k * nb_ + k];
      flops += k - top_[k];
    }
    return normalize_l1(xi) > 0.0;
  }

 private:
  std::size_t nb_;
  std::vector<double> a_;
  std::vector<std::size_t> lo_, top_;
};

}  // namespace

NcdPartition partition_by_key(std::vector<index_t> key) {
  NcdPartition p;
  const std::size_t n = key.size();
  if (n == 0) return p;
  const index_t max_key = *std::max_element(key.begin(), key.end());
  // Block ids in order of first appearance, so blocks are ordered by their
  // smallest state. The key's storage becomes block_of.
  std::vector<index_t> id(static_cast<std::size_t>(max_key) + 1, index_t{-1});
  index_t blocks = 0;
  for (index_t& k : key) {
    assert(k >= 0);
    index_t& b = id[static_cast<std::size_t>(k)];
    if (b < 0) b = blocks++;
    k = b;
  }
  p.block_of = std::move(key);
  // Counting sort by block; states stay ascending within each block.
  p.block_ptr.assign(static_cast<std::size_t>(blocks) + 1, 0);
  for (const index_t b : p.block_of) ++p.block_ptr[static_cast<std::size_t>(b) + 1];
  for (std::size_t b = 0; b < static_cast<std::size_t>(blocks); ++b) {
    p.max_block = std::max(p.max_block, p.block_ptr[b + 1]);
    p.block_ptr[b + 1] += p.block_ptr[b];
  }
  p.states.resize(n);
  std::vector<index_t> cursor(p.block_ptr.begin(), p.block_ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    p.states[static_cast<std::size_t>(cursor[static_cast<std::size_t>(p.block_of[i])]++)] =
        static_cast<index_t>(i);
  }
  return p;
}

NcdSolveResult ncd_steady_state(const CsrMatrix& q, const NcdPartition& p,
                                const NcdSolveOptions& opts) {
  NcdSolveResult res;
  const index_t n = q.rows();
  const auto nu = static_cast<std::size_t>(n);
  const std::size_t nb = p.n_blocks();
  if (n == 0 || nb < 2 || p.block_of.size() != nu) return res;

  // Everything runs on Q^T (inflow form), the orientation and the cached
  // matrix the flat Gauss-Seidel solver uses; x stays in state order. The
  // working set is x, its residual vector, the coarse chain and a mass per
  // block: the block shapes w = x / mass(block) stay implicit.
  const CsrMatrix& qt = q.transpose_cache();
  // An absorbing state would poison the censored sweeps with a divide by
  // zero.
  for (index_t j = 0; j < n; ++j) {
    if (qt.at(j, j) == 0.0) {
      obs::count("ncd.zero_diagonal_bailouts");
      return res;
    }
  }

  Vec x(nu, 1.0 / static_cast<double>(n));
  if (opts.initial_guess.size() == nu) {
    Vec guess(opts.initial_guess.begin(), opts.initial_guess.end());
    for (double& v : guess) {
      if (!std::isfinite(v) || v < 0.0) v = 0.0;
    }
    if (normalize_l1(guess) > 0.0) x.swap(guess);
  }

  const std::vector<index_t>& blk = p.block_of;
  Vec y(nu);     // x Q, for the balance residual
  Vec mass(nb);  // block masses of x
  Vec xi(nb);    // coarse (block) distribution
  CoarseChain coarse(nb);
  const int inner = std::max(1, opts.inner_sweeps);
  const std::size_t nnz = std::max<std::size_t>(1, q.nnz());
  double best = std::numeric_limits<double>::infinity();
  int since_best = 0;

  while (res.sweeps < opts.max_sweeps) {
    std::size_t flops = 0;
    // --- Aggregation: coarse coupling chain from the current iterate. (No
    // span per pass: the caller's solve/ncd-ad span covers the solve, and
    // hundreds of passes per solve would fill the bounded span store.) ---
    // A block that lost all its mass gets a uniform shape, which keeps
    // the coarse matrix a proper generator.
    std::fill(mass.begin(), mass.end(), 0.0);
    for (std::size_t i = 0; i < nu; ++i) mass[static_cast<std::size_t>(blk[i])] += x[i];
    for (std::size_t b = 0; b < nb; ++b) {
      if (mass[b] > 0.0) continue;
      const index_t size = p.block_ptr[b + 1] - p.block_ptr[b];
      for (index_t k = p.block_ptr[b]; k < p.block_ptr[b + 1]; ++k) {
        x[static_cast<std::size_t>(p.states[static_cast<std::size_t>(k)])] =
            1.0 / static_cast<double>(size);
      }
      mass[b] = 1.0;
    }
    // C[I][J] = sum_{i in I} w_i * sum_{j in J} q_ij for I != J with
    // w_i = x_i / mass(I), read off Q^T row j (entries q_ij); the
    // diagonal is implied.
    coarse.clear();
    for (index_t j = 0; j < n; ++j) {
      const auto bj = static_cast<std::size_t>(blk[static_cast<std::size_t>(j)]);
      const auto cs = qt.row_cols(j);
      const auto vs = qt.row_vals(j);
      for (std::size_t k = 0; k < cs.size(); ++k) {
        const auto i = static_cast<std::size_t>(cs[k]);
        const auto bi = static_cast<std::size_t>(blk[i]);
        if (bi != bj) coarse.add(bi, bj, x[i] / mass[bi] * vs[k]);
      }
    }
    if (!coarse.solve(xi, flops)) {
      obs::count("ncd.coarse_singular");
      break;  // bail unconverged; the kAuto chain escalates
    }
    // Redistribute: block masses from the coarse solve, shapes from x.
    for (std::size_t i = 0; i < nu; ++i) {
      const auto b = static_cast<std::size_t>(blk[i]);
      x[i] = xi[b] * (x[i] / mass[b]);
    }

    // --- Disaggregation: censored Gauss-Seidel per block, blocks in
    // order, states ascending within each. Boundary inflow reads the latest
    // global x, so later blocks already see this pass's corrections (block
    // Gauss-Seidel, not Jacobi). ---
    for (std::size_t b = 0; b < nb; ++b) {
      const auto members = std::span(p.states).subspan(
          static_cast<std::size_t>(p.block_ptr[b]),
          static_cast<std::size_t>(p.block_ptr[b + 1] - p.block_ptr[b]));
      for (int s = 0; s < inner; ++s) {
        for (const index_t j : members) {
          const auto cs = qt.row_cols(j);
          const auto vs = qt.row_vals(j);
          double inflow = 0.0;
          double diag = 0.0;
          for (std::size_t k = 0; k < cs.size(); ++k) {
            if (cs[k] == j) {
              diag = vs[k];
            } else {
              inflow += vs[k] * x[static_cast<std::size_t>(cs[k])];
            }
          }
          x[static_cast<std::size_t>(j)] = inflow / -diag;
        }
      }
    }

    ++res.outer;
    res.sweeps += inner + 2 + static_cast<int>((flops + nnz - 1) / nnz);
    if (!(normalize_l1(x) > 0.0)) break;
    qt.multiply(x, y);
    res.residual = nrm_inf(y);  // NaN-propagating
    obs::trace_iteration("ncd-ad", res.outer - 1, res.residual);
    if (res.residual <= opts.tol) {
      res.converged = true;
      break;
    }
    if (!std::isfinite(res.residual)) break;
    if (res.residual < best) {
      best = res.residual;
      since_best = 0;
    } else if (++since_best >= kStallPasses) {
      obs::count("ncd.stalls");
      break;
    }
  }

  obs::count("ncd.sweeps", static_cast<std::uint64_t>(res.sweeps));
  res.pi = std::move(x);
  return res;
}

}  // namespace tags::linalg
