// Iterative aggregation-disaggregation (IAD) on a structural block
// partition of a CTMC.
//
// The classic KMS iteration alternates censored per-block Gauss-Seidel
// sweeps with a solve of the block-count-sized coupling chain. It contracts
// the error fastest when the blocks are nearly completely decomposable
// (Courtois), but it also pays on chains that are not: a coarse solve per
// pass corrects the slow, long-range error modes that flat Gauss-Seidel
// needs thousands of sweeps to move.
//
// The partition comes from the model, not from the rates: a
// GeneratorModel names an aggregation key per state (for the TAGS models,
// the queue-length pair (q1, q2) — the numerical state vector of Ding &
// Hillston), and GeneratorCtmc turns it into an NcdPartition once at
// assembly. The partition reads no rate, so it survives every value rebind
// of a sweep. The solver works in place on the unpermuted chain: blocks
// are lists of state indices, and the sweeps and the coarse matrix both
// read the Q^T that the flat Gauss-Seidel solver already caches. The
// coarse chain is solved by Grassmann-Taksar-Heyman elimination.
//
// The ctmc layer registers this as SteadyStateMethod::kNcdAd behind a
// structural gate; everything here is plain linear algebra on a generator Q.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/lu.hpp"

namespace tags::linalg {

/// The structural gate the ctmc layer applies to a partition.
struct NcdOptions {
  /// Below this many states the dense/iterative chain is already fast; the
  /// ctmc layer leaves the NCD row out entirely (true zero overhead).
  index_t min_states = kDenseSolveMaxStates + 1;
  /// The coarse chain is stored densely (blocks^2 doubles) and eliminated
  /// inside its envelope, up to cubic in block count.
  index_t max_blocks = 512;
  /// One block holding more than this fraction of all states means the
  /// sweeps are effectively flat Gauss-Seidel with extra bookkeeping.
  double max_block_fraction = 0.5;
};

/// A block partition of the chain's states. Pattern-only: it depends on
/// the state space, never on the rates.
struct NcdPartition {
  /// Block I's states are states[block_ptr[I] .. block_ptr[I+1]),
  /// ascending. Blocks are ordered by their smallest state.
  std::vector<index_t> block_ptr;
  std::vector<index_t> states;
  /// Block id per state.
  std::vector<index_t> block_of;
  index_t max_block = 0;

  [[nodiscard]] std::size_t n_blocks() const noexcept {
    return block_ptr.empty() ? 0 : block_ptr.size() - 1;
  }
};

/// One block per distinct key: states i and j share a block iff
/// key[i] == key[j]. Keys are non-negative codes of small range (a
/// mixed-radix code of the queue lengths). Deterministic; O(n + max key).
[[nodiscard]] NcdPartition partition_by_key(std::vector<index_t> key);

struct NcdSolveOptions {
  /// Absolute target on ||pi Q||_inf — callers pre-scale by their own
  /// max-exit convention.
  double tol = 1e-11;
  /// Work budget in sweep-equivalents (see NcdSolveResult::sweeps).
  int max_sweeps = 200000;
  /// Censored Gauss-Seidel sweeps per block per outer pass.
  int inner_sweeps = 2;
  /// Warm start; ignored unless it has q.rows() entries with positive
  /// mass. Carries the previous operating point's block solutions and
  /// coarse vector implicitly.
  std::span<const double> initial_guess;
};

struct NcdSolveResult {
  /// Stationary distribution; empty on bailout.
  Vec pi;
  int outer = 0;
  /// Work done, in passes over Q's non-zeros: per outer pass the block
  /// sweeps, one for aggregation and one for the residual, plus the coarse
  /// solve's multiply-adds divided by nnz (rounded up).
  int sweeps = 0;
  double residual = std::numeric_limits<double>::infinity();
  bool converged = false;
};

/// KMS iterative aggregation-disaggregation for pi Q = 0, sum(pi) = 1.
/// Requires a partition of q with >= 2 blocks (profitability is the
/// caller's policy; correctness only needs the block structure). Stops at
/// convergence, at a non-finite residual, when the residual has not set a
/// new low for a while (stagnation), or at the sweep budget. Bails out
/// unconverged — never poisons — on zero diagonals, a reducible coarse
/// chain, or vanishing mass.
[[nodiscard]] NcdSolveResult ncd_steady_state(const CsrMatrix& q, const NcdPartition& p,
                                              const NcdSolveOptions& opts = {});

}  // namespace tags::linalg
