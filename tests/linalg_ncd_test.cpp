// Structural block partitions, the in-place aggregation-disaggregation
// solver, and its gate in the kAuto chain: a key partition's tables agree,
// keep strong-edge components whole and recover planted, weakly coupled
// blocks, IAD matches the exact solve on randomized
// planted-block chains, stops at once on a poisoned generator and within
// its sweep budget, the paper's square chain takes NCD-AD with fewer
// sweep-equivalents than Gauss-Seidel, a declined gate is bit-identical to
// the chain without the row, and the model's partition is pattern-only: it
// survives value rebinds and follows a re-assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "ctmc/builder.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/coo.hpp"
#include "linalg/ncd.hpp"
#include "linalg/vector_ops.hpp"
#include "models/tags.hpp"

namespace {

using namespace tags;
using linalg::CsrMatrix;
using linalg::index_t;

/// Nearly completely decomposable chain: `blocks` rings of `size` states
/// with strong internal rates (a cycle plus random chords, rates in [1,2])
/// joined by a weak inter-block ring (rates around 1e-3). Irreducible by
/// construction — every state lies on its block cycle and every block lies
/// on the inter-block cycle. Block b holds states [b*size, (b+1)*size).
ctmc::Ctmc random_ncd_chain(unsigned blocks, unsigned size, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> strong(1.0, 2.0);
  std::uniform_real_distribution<double> weak(5e-4, 1.5e-3);
  std::uniform_int_distribution<unsigned> pick(0, size - 1);
  ctmc::CtmcBuilder b;
  for (unsigned blk = 0; blk < blocks; ++blk) {
    const unsigned base = blk * size;
    for (unsigned i = 0; i < size; ++i) {
      b.add(base + i, base + (i + 1) % size, strong(gen));
    }
    for (unsigned e = 0; e < size; ++e) {
      const unsigned from = pick(gen);
      const unsigned to = pick(gen);
      if (from == to) continue;
      b.add(base + from, base + to, strong(gen));
    }
    b.add(base + pick(gen), ((blk + 1) % blocks) * size + pick(gen), weak(gen));
  }
  return b.build();
}

/// The planted blocks of random_ncd_chain as a key partition.
linalg::NcdPartition planted(unsigned blocks, unsigned size) {
  std::vector<index_t> key(static_cast<std::size_t>(blocks) * size);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<index_t>(i / size);
  return linalg::partition_by_key(key);
}

models::TagsParams square_params(double t) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = t;
  p.n = 6;
  p.k1 = p.k2 = 10;
  return p;
}

std::vector<ctmc::SteadyStateMethod> executed(const ctmc::SteadyStateResult& r) {
  std::vector<ctmc::SteadyStateMethod> out;
  for (const auto& a : r.attempts) {
    if (a.gate_reason.empty()) out.push_back(a.method);
  }
  return out;
}

TEST(NcdPartition, PermutationAndBlockTablesAgree) {
  // A scattered key: block membership interleaves across the state order.
  const std::size_t n = 211;
  std::mt19937 gen(42);
  std::uniform_int_distribution<index_t> pick(0, 16);
  std::vector<index_t> key(n);
  for (auto& k : key) k = 3 * pick(gen);  // sparse codes: gaps in the key range
  const auto p = linalg::partition_by_key(key);
  ASSERT_EQ(p.states.size(), n);
  ASSERT_EQ(p.block_of.size(), n);
  ASSERT_GE(p.n_blocks(), 2u);

  // states is a bijection: the block-ordered list of every state once.
  std::vector<int> seen(n, 0);
  for (const index_t s : p.states) {
    ASSERT_GE(s, 0);
    ASSERT_LT(static_cast<std::size_t>(s), n);
    ++seen[static_cast<std::size_t>(s)];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);

  // block_ptr brackets exactly the states block_of assigns, ascending within
  // a block; blocks are ordered by their smallest state and hold one key.
  ASSERT_EQ(p.block_ptr.front(), 0);
  ASSERT_EQ(static_cast<std::size_t>(p.block_ptr.back()), n);
  index_t max_block = 0;
  index_t prev_first = -1;
  for (std::size_t blk = 0; blk < p.n_blocks(); ++blk) {
    const index_t lo = p.block_ptr[blk];
    const index_t hi = p.block_ptr[blk + 1];
    ASSERT_LT(lo, hi);
    max_block = std::max(max_block, hi - lo);
    EXPECT_GT(p.states[static_cast<std::size_t>(lo)], prev_first);
    prev_first = p.states[static_cast<std::size_t>(lo)];
    for (index_t k = lo; k < hi; ++k) {
      const auto s = static_cast<std::size_t>(p.states[static_cast<std::size_t>(k)]);
      EXPECT_EQ(p.block_of[s], static_cast<index_t>(blk));
      EXPECT_EQ(key[s], key[static_cast<std::size_t>(prev_first)]);
      if (k > lo) {
        EXPECT_LT(p.states[static_cast<std::size_t>(k - 1)], p.states[static_cast<std::size_t>(k)]);
      }
    }
  }
  EXPECT_EQ(p.max_block, max_block);
}

TEST(NcdPartition, StrongEdgesNeverCrossBlocks) {
  // Key each state by its strong-edge component (rates >= 0.5, so only the
  // weak inter-block ring is left out), coded by scattered labels: the
  // partition must keep every strong edge inside a block and put each
  // component in a block of its own.
  const double thresh = 0.5;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const unsigned blocks = 4 + seed % 4;
    const auto chain = random_ncd_chain(blocks, 12 + seed, seed);
    const CsrMatrix& q = chain.generator();
    const auto n = static_cast<std::size_t>(q.rows());

    std::vector<index_t> root(n);
    for (std::size_t i = 0; i < n; ++i) root[i] = static_cast<index_t>(i);
    const auto find = [&](index_t s) {
      while (root[static_cast<std::size_t>(s)] != s) s = root[static_cast<std::size_t>(s)];
      return s;
    };
    for (index_t i = 0; i < q.rows(); ++i) {
      const auto cols = q.row_cols(i);
      const auto vals = q.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] == i || vals[k] < thresh) continue;
        root[static_cast<std::size_t>(find(i))] = find(cols[k]);
      }
    }
    std::vector<index_t> key(n);
    for (std::size_t i = 0; i < n; ++i) key[i] = 7 * (static_cast<index_t>(n) - find(static_cast<index_t>(i)));

    const auto p = linalg::partition_by_key(key);
    EXPECT_EQ(p.n_blocks(), blocks) << "seed " << seed;
    for (index_t i = 0; i < q.rows(); ++i) {
      const auto cols = q.row_cols(i);
      const auto vals = q.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] == i) continue;
        const bool same = p.block_of[static_cast<std::size_t>(i)] ==
                          p.block_of[static_cast<std::size_t>(cols[k])];
        if (vals[k] >= thresh) {
          EXPECT_TRUE(same) << "strong edge " << i << "->" << cols[k] << " crosses blocks";
        } else {
          EXPECT_FALSE(same) << "weak edge " << i << "->" << cols[k] << " inside a block";
        }
      }
    }
  }
}

TEST(NcdPartition, RecoversPlantedBlocksAndCoupling) {
  const unsigned blocks = 8, size = 15;
  const auto p = planted(blocks, size);
  ASSERT_EQ(p.n_blocks(), blocks);
  EXPECT_EQ(p.max_block, static_cast<index_t>(size));
  for (std::size_t i = 0; i < p.block_of.size(); ++i) {
    EXPECT_EQ(p.block_of[i], static_cast<index_t>(i / size));
    EXPECT_EQ(p.states[i], static_cast<index_t>(i));  // contiguous blocks: identity order
  }
  EXPECT_EQ(linalg::partition_by_key({}).n_blocks(), 0u);

  // On the planted chain the blocks carry all strong rates: the largest
  // inter-block outflow, relative to the largest exit rate, is the weak
  // ring's, and IAD on those blocks converges in far fewer sweep-equivalents
  // than flat Gauss-Seidel needs to cross the weak coupling.
  const auto chain = random_ncd_chain(blocks, size, 7);
  const CsrMatrix& q = chain.generator();
  ASSERT_EQ(static_cast<std::size_t>(q.rows()), p.block_of.size());
  double scale = 0.0;
  for (index_t i = 0; i < q.rows(); ++i) scale = std::max(scale, -q.at(i, i));
  double coupling = 0.0;
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cols = q.row_cols(i);
    const auto vals = q.row_vals(i);
    double out = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] != i && p.block_of[static_cast<std::size_t>(i)] !=
                              p.block_of[static_cast<std::size_t>(cols[k])]) {
        out += vals[k];
      }
    }
    coupling = std::max(coupling, out / scale);
  }
  EXPECT_GT(coupling, 0.0);  // irreducible: the blocks do talk
  EXPECT_LT(coupling, 1.5e-3);

  // Both at the ctmc layer's default target and budget, scaled by the
  // largest exit rate; flat Gauss-Seidel may spend the whole budget.
  ctmc::SteadyStateOptions gs;
  gs.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto flat = ctmc::steady_state(q, gs);
  linalg::NcdSolveOptions so;
  so.tol = gs.tol * std::max(1.0, chain.max_exit_rate());
  so.max_sweeps = gs.max_iter;
  const auto iad = linalg::ncd_steady_state(q, p, so);
  ASSERT_TRUE(iad.converged) << iad.residual;
  EXPECT_LT(iad.sweeps, flat.iterations) << "flat converged: " << flat.converged;
  ctmc::SteadyStateOptions lu;
  lu.method = ctmc::SteadyStateMethod::kDenseLu;
  const auto exact = ctmc::steady_state(q, lu);
  ASSERT_TRUE(exact.converged);
  EXPECT_LT(linalg::max_abs_diff(iad.pi, exact.pi), 1e-8);
}

TEST(NcdIad, MatchesDenseLuOnRandomChains) {
  int solved = 0;
  for (unsigned seed = 100; seed < 150; ++seed) {
    const unsigned blocks = 4 + seed % 5, size = 10 + seed % 7;
    const auto chain = random_ncd_chain(blocks, size, seed);
    const CsrMatrix& q = chain.generator();
    const auto part = planted(blocks, size);

    linalg::NcdSolveOptions so;
    so.tol = 1e-12;
    const auto iad = linalg::ncd_steady_state(q, part, so);
    ASSERT_TRUE(iad.converged) << "seed " << seed << " residual " << iad.residual;

    ctmc::SteadyStateOptions lu;
    lu.method = ctmc::SteadyStateMethod::kDenseLu;
    const auto exact = ctmc::steady_state(q, lu);
    ASSERT_TRUE(exact.converged);
    EXPECT_LT(linalg::max_abs_diff(iad.pi, exact.pi), 1e-8) << "seed " << seed;
    ++solved;
  }
  EXPECT_EQ(solved, 50);
}

TEST(NcdIad, ExplicitRequestThroughCtmcCertifies) {
  const auto chain = random_ncd_chain(6, 20, 3);
  const auto part = planted(6, 20);
  // An explicit request runs the row whatever the chain's size.
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kNcdAd;
  const auto res = ctmc::steady_state(chain.generator(), opts, &part);
  EXPECT_EQ(res.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_TRUE(res.attempts.front().gate_reason.empty());
}

TEST(NcdIad, ExplicitRequestWithoutPartitionSaysSo) {
  // A raw CSR carries no aggregation key: the request is declined with its
  // reason, so "no key" reads differently from a solver failure.
  const auto chain = random_ncd_chain(6, 20, 3);
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kNcdAd;
  const auto res = ctmc::steady_state(chain.generator(), opts);
  EXPECT_EQ(res.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.pi.empty());
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_EQ(res.attempts.front().gate_reason, "no-partition");
}

TEST(NcdIad, WarmStartConverges) {
  const auto chain = random_ncd_chain(6, 20, 9);
  const CsrMatrix& q = chain.generator();
  const auto part = planted(6, 20);
  linalg::NcdSolveOptions so;
  so.tol = 1e-12;
  const auto cold = linalg::ncd_steady_state(q, part, so);
  ASSERT_TRUE(cold.converged);
  so.initial_guess = cold.pi;
  const auto warm = linalg::ncd_steady_state(q, part, so);
  ASSERT_TRUE(warm.converged);
  // Restarting from the answer must converge at least as fast as cold.
  EXPECT_LE(warm.outer, cold.outer);
  EXPECT_LT(linalg::max_abs_diff(warm.pi, cold.pi), 1e-10);
}

TEST(NcdIad, ZeroDiagonalBailsOutCleanly) {
  // Two blocks, but state 3 is absorbing (no exit, zero diagonal): the
  // solver must refuse without poisoning anything.
  linalg::CooMatrix coo(4, 4);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(0, 0, -1.001);
  coo.add(1, 1, -1.0);
  coo.add(0, 2, 1e-3);
  coo.add(2, 3, 1.0);
  coo.add(2, 2, -1.0);
  const CsrMatrix q = CsrMatrix::from_coo(coo);
  const auto part = linalg::partition_by_key(std::vector<index_t>{0, 0, 1, 1});
  const auto res = linalg::ncd_steady_state(q, part);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.pi.empty());
  EXPECT_FALSE(std::isfinite(res.residual));  // stays at the +inf sentinel
}

TEST(NcdIad, NonFiniteResidualStopsAtFirstCheck) {
  auto chain = random_ncd_chain(4, 10, 5);
  CsrMatrix q = chain.generator();
  // Poison one off-diagonal rate (the diagonal stays non-zero).
  linalg::CooMatrix coo(q.rows(), q.cols());
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      coo.add(i, cs[k], i == 0 && cs[k] == 1 ? std::numeric_limits<double>::quiet_NaN() : vs[k]);
    }
  }
  q = CsrMatrix::from_coo(coo);
  const auto res = linalg::ncd_steady_state(q, planted(4, 10));
  EXPECT_FALSE(res.converged);
  EXPECT_FALSE(std::isfinite(res.residual));
  EXPECT_EQ(res.outer, 1);  // not the 200 000-sweep budget
}

TEST(NcdIad, SweepBudgetCapsTheWork) {
  const auto chain = random_ncd_chain(6, 20, 11);
  const auto part = planted(6, 20);
  linalg::NcdSolveOptions so;
  so.tol = 0.0;  // unreachable: only the budget (or stagnation) stops it
  so.max_sweeps = 40;
  const auto res = linalg::ncd_steady_state(chain.generator(), part, so);
  EXPECT_FALSE(res.converged);
  EXPECT_GE(res.outer, 1);
  // One pass past the budget at most.
  EXPECT_LT(res.sweeps, so.max_sweeps + res.sweeps / res.outer + 1);
  EXPECT_FALSE(res.pi.empty());
}

TEST(NcdGate, SquareTagsChainTakesNcdAd) {
  // The classic square chain at t=50: timeouts dominate and no block is
  // weakly coupled by rate, yet the (q1, q2) blocks carry the solve with
  // less work than flat Gauss-Seidel.
  const models::TagsModel model(square_params(50.0));
  const auto res = model.solve();
  ASSERT_EQ(res.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();
  EXPECT_EQ(executed(res), std::vector{ctmc::SteadyStateMethod::kNcdAd});

  // Work in sweep-equivalents against an explicit Gauss-Seidel solve at the
  // same target: both counts are deterministic.
  const CsrMatrix& q = model.chain().generator();
  ctmc::SteadyStateOptions gs;
  gs.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto flat = ctmc::steady_state(q, gs);
  ASSERT_TRUE(flat.converged);
  linalg::NcdSolveOptions so;
  so.tol = ctmc::SteadyStateOptions{}.tol * std::max(1.0, model.chain().max_exit_rate());
  const auto iad = linalg::ncd_steady_state(q, *model.chain().partition(), so);
  ASSERT_TRUE(iad.converged);
  EXPECT_EQ(iad.outer, res.iterations);
  EXPECT_LT(iad.sweeps, flat.iterations);
  EXPECT_LT(linalg::max_abs_diff(res.pi, flat.pi), 1e-7);
}

TEST(NcdGate, DeclinedChainIsBitIdenticalToNcdOff) {
  // A gate that declines (here: more blocks than allowed) must leave the
  // solve bit-identical to a chain without the row — the same as a raw CSR
  // solve, which has no partition and so never enters the row at all.
  const models::TagsModel model(square_params(50.0));
  const CsrMatrix& q = model.chain().generator();

  ctmc::SteadyStateOptions narrow;
  narrow.ncd_opts.max_blocks = 100;  // 121 blocks at K = 10
  const auto declined = model.solve(narrow);
  const auto raw = ctmc::steady_state(q, {});

  ASSERT_TRUE(declined.converged);
  ASSERT_TRUE(raw.converged);
  EXPECT_EQ(declined.method_used, raw.method_used);
  // Bit-identical, not approximately equal: the gate must keep the solver
  // off the chain entirely, so no rounding can differ.
  ASSERT_EQ(declined.pi.size(), raw.pi.size());
  EXPECT_EQ(std::memcmp(declined.pi.data(), raw.pi.data(), raw.pi.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&declined.residual, &raw.residual, sizeof(double)), 0);
  EXPECT_EQ(declined.iterations, raw.iterations);

  // The gates leave an audit trail: both solves carry the QBD bandwidth
  // guard's gated entry, the declined NCD-AD row adds its own, and the raw
  // solve has no NCD-AD entry at all.
  const auto saw_qbd_gate = [](const ctmc::SteadyStateResult& r) {
    return std::any_of(r.attempts.begin(), r.attempts.end(), [](const auto& a) {
      return a.method == ctmc::SteadyStateMethod::kLevelQbd && !a.gate_reason.empty();
    });
  };
  EXPECT_TRUE(saw_qbd_gate(declined));
  EXPECT_TRUE(saw_qbd_gate(raw));
  bool saw_ncd_gate = false;
  for (const auto& a : declined.attempts) {
    if (a.method == ctmc::SteadyStateMethod::kNcdAd) {
      saw_ncd_gate = true;
      EXPECT_EQ(a.gate_reason, "too-many-blocks");
      EXPECT_FALSE(a.converged);
      EXPECT_EQ(a.iterations, 0);
    }
  }
  for (const auto& a : raw.attempts) EXPECT_NE(a.method, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(saw_ncd_gate);
  EXPECT_EQ(executed(declined), executed(raw));
}

TEST(NcdGate, RareTimeoutTagsChainAccepted) {
  // The short-cutoff chain, nearly decomposable by rate: QBD's bandwidth
  // guard declines, and kAuto lands on NCD-AD with a clean certificate
  // matching the generic chain's answer.
  const models::TagsModel model(square_params(0.4));
  const auto res = model.solve();
  EXPECT_EQ(res.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();

  ctmc::SteadyStateOptions off;
  off.ncd = false;
  const auto generic = model.solve(off);
  ASSERT_TRUE(generic.converged);
  EXPECT_NE(generic.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_LT(linalg::max_abs_diff(res.pi, generic.pi), 1e-7);
}

TEST(NcdCache, ValueRebindReusesPartition) {
  // The partition is pattern-only: a rate rebind keeps it, entry for entry.
  models::TagsModel model(square_params(0.4));
  const linalg::NcdPartition* first = model.chain().partition();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->n_blocks(), 121u);  // (K1 + 1)(K2 + 1) at K = 10
  const linalg::NcdPartition before = *first;

  model.rebind(square_params(50.0));
  const linalg::NcdPartition* second = model.chain().partition();
  ASSERT_EQ(second, first);
  EXPECT_EQ(second->block_ptr, before.block_ptr);
  EXPECT_EQ(second->states, before.states);
  EXPECT_EQ(second->block_of, before.block_of);
}

TEST(NcdCache, DimensionChangeInvalidates) {
  // Re-assembling the engine from another structure replaces the partition.
  auto small_p = square_params(0.4);
  small_p.k1 = small_p.k2 = 8;
  const models::TagsModel big(square_params(0.4));
  const models::TagsModel small(small_p);
  ctmc::GeneratorCtmc engine;
  engine.assemble(big);
  ASSERT_NE(engine.partition(), nullptr);
  EXPECT_EQ(engine.partition()->n_blocks(), 121u);
  engine.assemble(small);
  ASSERT_NE(engine.partition(), nullptr);
  EXPECT_EQ(engine.partition()->n_blocks(), 81u);
  EXPECT_EQ(static_cast<index_t>(engine.partition()->block_of.size()), small.n_states());
}

TEST(NcdCache, WarmSweepKeepsModelPartition) {
  // The sweep-shard wiring end to end: the first solve runs cold, the
  // rebound second solve warm-starts from the previous pi on the same
  // partition — still on the NCD path, still certified, and in fewer
  // outer passes than cold.
  models::TagsModel model(square_params(50.0));
  ctmc::WarmStartState ws;
  ws.reconcile(model.n_states());
  const auto first = model.solve(ws.opts);
  ASSERT_EQ(first.method_used, ctmc::SteadyStateMethod::kNcdAd);
  ASSERT_TRUE(first.certificate.ok());
  ws.accept(first);

  model.rebind(square_params(51.0));
  ws.reconcile(model.n_states());
  ASSERT_TRUE(ws.opts.initial_guess.has_value());
  const auto warm = model.solve(ws.opts);
  EXPECT_EQ(warm.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(warm.converged);
  EXPECT_TRUE(warm.certificate.ok()) << warm.certificate.failed_check();
  const auto cold = model.solve();
  EXPECT_LT(warm.iterations, cold.iterations);
}

}  // namespace
