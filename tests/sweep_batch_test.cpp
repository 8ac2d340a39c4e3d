// Batched-vs-unbatched differential coverage (see DESIGN.md "Batched
// multi-point sweeps"): on the direct-solver paths the batch width — like
// the thread count — must stay outside the determinism contract, so every
// sweep, optimizer scan and journal replay here is compared byte for byte
// against the scalar (batch = 1) run. The batched LU kernel itself is
// pinned bitwise against linalg::lu_factor, including a singular lane
// sharing a batch with healthy ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "approx/optimizer.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/batch.hpp"
#include "linalg/dense.hpp"
#include "linalg/lu.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "store/store.hpp"

namespace {

using namespace tags;

/// The reduced model the determinism suites use: fast enough to run the
/// grid several times per test, big enough for several shards and batches.
models::TagsParams reduced_model() {
  models::TagsParams base;
  base.n = 3;
  base.k1 = base.k2 = 4;
  return base;
}

models::TagsH2Params reduced_h2_model() {
  models::TagsH2Params base;
  base.n = 3;
  base.k1 = base.k2 = 4;
  return base;
}

const std::vector<double>& grid() {
  static const std::vector<double> ts = core::linspace(10.0, 150.0, 29);
  return ts;
}

bool same_bytes(const std::vector<models::Metrics>& a,
                const std::vector<models::Metrics>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(models::Metrics)) == 0);
}

bool same_bits(const linalg::Vec& a, const linalg::Vec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_counters_equal(const core::SweepStats& scalar,
                           const core::SweepStats& batched) {
  EXPECT_EQ(scalar.warm.hits, batched.warm.hits);
  EXPECT_EQ(scalar.warm.misses, batched.warm.misses);
  EXPECT_EQ(scalar.warm.cleared, batched.warm.cleared);
  EXPECT_EQ(scalar.warm.uncertified, batched.warm.uncertified);
  EXPECT_EQ(scalar.points, batched.points);
  EXPECT_EQ(scalar.shards, batched.shards);
}

std::string fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / ("tags_sweep_batch_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The scalar reference chain for one model family: warm-started
/// rebind/solve point by point, exactly what eval_t_chain does at batch 1.
template <class Model, class Params>
std::vector<ctmc::SteadyStateResult> scalar_chain(
    const Params& base, const std::vector<double>& ts,
    const ctmc::SteadyStateOptions& opts0 = {}) {
  std::vector<ctmc::SteadyStateResult> out;
  ctmc::WarmStartState warm;
  warm.opts = opts0;
  std::optional<Model> model;
  for (const double t : ts) {
    Params p = base;
    p.t = t;
    if (model) {
      model->rebind(p);
    } else {
      model.emplace(p);
    }
    warm.reconcile(model->n_states());
    auto r = model->solve(warm.opts);
    warm.accept(r);
    out.push_back(std::move(r));
  }
  return out;
}

/// The batched path over the same points: one CsrValueBatch, one call.
template <class Model, class Params>
std::vector<ctmc::SteadyStateResult> batch_solve(
    const Params& base, const std::vector<double>& ts,
    const ctmc::SteadyStateOptions& opts = {}) {
  std::optional<Model> model;
  std::optional<linalg::CsrValueBatch> vals;
  for (std::size_t b = 0; b < ts.size(); ++b) {
    Params p = base;
    p.t = ts[b];
    if (model) {
      model->rebind(p);
    } else {
      model.emplace(p);
    }
    const linalg::CsrMatrix& q = model->chain().generator();
    if (!vals) vals.emplace(q, ts.size());
    vals->load_lane(b, q);
  }
  return ctmc::steady_state_batch(*vals, opts);
}

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void expect_results_identical(const std::vector<ctmc::SteadyStateResult>& scalar,
                              const std::vector<ctmc::SteadyStateResult>& batched) {
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t b = 0; b < scalar.size(); ++b) {
    SCOPED_TRACE("lane " + std::to_string(b));
    EXPECT_EQ(scalar[b].converged, batched[b].converged);
    EXPECT_EQ(scalar[b].method_used, batched[b].method_used);
    EXPECT_EQ(scalar[b].iterations, batched[b].iterations);
    EXPECT_TRUE(same_bits(scalar[b].pi, batched[b].pi));
    EXPECT_EQ(bits_of(scalar[b].residual), bits_of(batched[b].residual));
    EXPECT_EQ(scalar[b].certificate.ok(), batched[b].certificate.ok());
    ASSERT_EQ(scalar[b].attempts.size(), batched[b].attempts.size());
    for (std::size_t i = 0; i < scalar[b].attempts.size(); ++i) {
      SCOPED_TRACE("attempt " + std::to_string(i));
      const ctmc::SteadyStateAttempt& sa = scalar[b].attempts[i];
      const ctmc::SteadyStateAttempt& ba = batched[b].attempts[i];
      EXPECT_EQ(sa.method, ba.method);
      EXPECT_EQ(sa.gate_reason, ba.gate_reason);
      EXPECT_EQ(sa.iterations, ba.iterations);
      EXPECT_EQ(sa.converged, ba.converged);
      EXPECT_EQ(bits_of(sa.residual), bits_of(ba.residual));
    }
  }
}

TEST(SweepBatch, TagsSweepBitIdenticalAcrossBatchWidths) {
  core::SweepStats scalar_stats;
  const auto scalar = core::tags_t_sweep(
      reduced_model(), grid(), {.threads = 1, .shard_size = 5, .batch = 1},
      &scalar_stats);
  ASSERT_EQ(scalar.size(), grid().size());
  for (const std::size_t batch : {std::size_t{4}, std::size_t{7}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    core::SweepStats stats;
    const auto batched = core::tags_t_sweep(
        reduced_model(), grid(), {.threads = 1, .shard_size = 5, .batch = batch},
        &stats);
    EXPECT_TRUE(same_bytes(scalar, batched));
    expect_counters_equal(scalar_stats, stats);
  }
}

TEST(SweepBatch, H2SweepBitIdenticalAcrossBatchWidths) {
  core::SweepStats scalar_stats;
  const auto scalar = core::tags_h2_t_sweep(
      reduced_h2_model(), grid(), {.threads = 1, .shard_size = 5, .batch = 1},
      &scalar_stats);
  for (const std::size_t batch : {std::size_t{4}, std::size_t{7}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    core::SweepStats stats;
    const auto batched = core::tags_h2_t_sweep(
        reduced_h2_model(), grid(), {.threads = 1, .shard_size = 5, .batch = batch},
        &stats);
    EXPECT_TRUE(same_bytes(scalar, batched));
    expect_counters_equal(scalar_stats, stats);
  }
}

TEST(SweepBatch, BatchComposesWithThreads) {
  // Thread count and batch width are both outside the determinism
  // contract; together they must still reproduce the serial scalar bytes.
  core::SweepStats ref_stats;
  const auto reference = core::tags_t_sweep(
      reduced_model(), grid(), {.threads = 1, .shard_size = 3, .batch = 1},
      &ref_stats);
  core::SweepStats stats;
  const auto combined = core::tags_t_sweep(
      reduced_model(), grid(), {.threads = 4, .shard_size = 3, .batch = 4}, &stats);
  EXPECT_TRUE(same_bytes(reference, combined));
  expect_counters_equal(ref_stats, stats);
}

TEST(SweepBatch, SteadyStateBatchMatchesScalarChainWithCertificates) {
  // Direct API differential: one batched call vs the warm-started scalar
  // chain, lane by lane. Every lane must also carry its own accepted
  // certificate — certification stays per point in a batched solve.
  const std::vector<double> ts = {20.0, 45.0, 70.0, 95.0, 110.0};
  const auto scalar = scalar_chain<models::TagsModel>(reduced_model(), ts);
  const auto batched = batch_solve<models::TagsModel>(reduced_model(), ts);
  expect_results_identical(scalar, batched);
  for (std::size_t b = 0; b < batched.size(); ++b) {
    EXPECT_TRUE(batched[b].converged) << "lane " << b;
    EXPECT_TRUE(batched[b].certificate.ok()) << "lane " << b;
  }
}

TEST(SweepBatch, DenseLuBatchBitIdentical) {
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kDenseLu;
  const std::vector<double> ts = {15.0, 40.0, 65.0, 90.0};
  const auto scalar =
      scalar_chain<models::TagsModel>(reduced_model(), ts, opts);
  const auto batched = batch_solve<models::TagsModel>(reduced_model(), ts, opts);
  expect_results_identical(scalar, batched);
  for (const auto& r : batched) {
    EXPECT_EQ(r.method_used, ctmc::SteadyStateMethod::kDenseLu);
  }
}

TEST(SweepBatch, LevelQbdBatchBitIdentical) {
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kLevelQbd;
  const std::vector<double> ts = {15.0, 40.0, 65.0, 90.0};
  const auto scalar =
      scalar_chain<models::TagsModel>(reduced_model(), ts, opts);
  const auto batched = batch_solve<models::TagsModel>(reduced_model(), ts, opts);
  expect_results_identical(scalar, batched);
}

TEST(SweepBatch, IterativeFallbackMatchesScalarSequence) {
  // An iterative method has no batched kernel: steady_state_batch must
  // reproduce the scalar warm-start chain exactly (same guesses, same
  // iteration counts), not just within tolerance.
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const std::vector<double> ts = {25.0, 50.0, 75.0};
  const auto scalar =
      scalar_chain<models::TagsModel>(reduced_model(), ts, opts);
  const auto batched = batch_solve<models::TagsModel>(reduced_model(), ts, opts);
  expect_results_identical(scalar, batched);

  // Lanes the batched entry rejects resume the scalar chain at the next
  // entry. A condition limit of 1 fails every dense-LU certificate, so each
  // lane goes on to warm-started Gauss-Seidel; an unreachable residual
  // bound walks each lane past level-QBD through the whole chain.
  ctmc::SteadyStateOptions dense_rejected;
  dense_rejected.structured = false;
  dense_rejected.certify_opts.condition_limit = 1.0;
  ctmc::SteadyStateOptions exhausted;
  exhausted.certify_opts.residual_bound = 1e-300;
  exhausted.max_iter = 300;
  for (const auto& [first, o] :
       {std::pair{ctmc::SteadyStateMethod::kDenseLu, dense_rejected},
        std::pair{ctmc::SteadyStateMethod::kLevelQbd, exhausted}}) {
    SCOPED_TRACE(std::string(ctmc::to_string(first)));
    const auto s = scalar_chain<models::TagsModel>(reduced_model(), ts, o);
    const auto b = batch_solve<models::TagsModel>(reduced_model(), ts, o);
    expect_results_identical(s, b);
    for (const auto& r : b) {
      ASSERT_GE(r.attempts.size(), 2u);
      EXPECT_EQ(r.attempts.front().method, first);
      EXPECT_TRUE(r.attempts.front().gate_reason.empty());
      EXPECT_NE(r.method_used, first);
    }
  }
}

TEST(SweepBatch, BatchedLuMatchesScalarFactorization) {
  constexpr std::size_t m = 7;
  constexpr std::size_t w = 3;
  constexpr std::size_t singular_lane = 1;
  // Deterministic, diagonally dominant per lane; lane 1 is all-zero so it
  // hits an exactly-zero pivot immediately and must not disturb the others.
  const auto entry = [](std::size_t i, std::size_t j, std::size_t b) {
    if (b == singular_lane) return 0.0;
    const double off = static_cast<double>((i * 7 + j * 3 + b * 11) % 13) - 6.0;
    return i == j ? 50.0 + static_cast<double>(b) : off;
  };
  linalg::BatchLuFactorization bf;
  bf.factor(m, w, entry);
  EXPECT_TRUE(bf.singular(singular_lane));
  EXPECT_TRUE(bf.any_singular());

  std::vector<double> rhs(m);
  for (std::size_t i = 0; i < m; ++i) rhs[i] = static_cast<double>(i) + 1.0;

  for (const std::size_t b : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("lane " + std::to_string(b));
    EXPECT_FALSE(bf.singular(b));
    linalg::DenseMatrix a(m, m);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) a(i, j) = entry(i, j, b);
    const linalg::LuFactorization scalar = linalg::lu_factor(a);

    // extract_lane hands back the scalar object bit for bit.
    const linalg::LuFactorization lane = bf.extract_lane(b);
    EXPECT_TRUE(same_bits(scalar.solve(rhs), lane.solve(rhs)));
    EXPECT_TRUE(same_bits(scalar.solve_transpose(rhs), lane.solve_transpose(rhs)));

    // The in-batch substitutions reproduce the scalar kernels too.
    linalg::Vec x(rhs.begin(), rhs.end());
    bf.solve_lane(b, x);
    EXPECT_TRUE(same_bits(scalar.solve(rhs), x));
    EXPECT_TRUE(same_bits(scalar.solve_transpose(rhs), bf.solve_transpose_lane(b, rhs)));
  }
}

TEST(SweepBatch, BatchedMultiRhsMatchesScalarMultiRhs) {
  constexpr std::size_t m = 6;
  constexpr std::size_t w = 4;
  constexpr std::size_t nc = 3;
  const auto entry = [](std::size_t i, std::size_t j, std::size_t b) {
    const double off = static_cast<double>((i * 5 + j * 9 + b * 7) % 11) - 5.0;
    return i == j ? 40.0 + 2.0 * static_cast<double>(b) : off;
  };
  const auto rhs_entry = [](std::size_t i, std::size_t c, std::size_t b) {
    return static_cast<double>((i * 3 + c * 13 + b) % 17) - 8.0;
  };
  linalg::BatchLuFactorization bf;
  bf.factor(m, w, entry);
  ASSERT_FALSE(bf.any_singular());

  std::vector<double> bm(m * nc * w);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t c = 0; c < nc; ++c)
      for (std::size_t b = 0; b < w; ++b)
        bm[(i * nc + c) * w + b] = rhs_entry(i, c, b);
  bf.solve_in_place_multi_batch(bm, nc);

  for (std::size_t b = 0; b < w; ++b) {
    SCOPED_TRACE("lane " + std::to_string(b));
    linalg::DenseMatrix a(m, m);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) a(i, j) = entry(i, j, b);
    const linalg::LuFactorization scalar = linalg::lu_factor(a);
    linalg::DenseMatrix rhs(m, nc);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t c = 0; c < nc; ++c) rhs(i, c) = rhs_entry(i, c, b);
    scalar.solve_in_place_multi(rhs);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t c = 0; c < nc; ++c) {
        const double got = bm[(i * nc + c) * w + b];
        const double want = rhs(i, c);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "entry (" << i << ", " << c << ")";
      }
    }
  }
}

TEST(SweepBatch, OptimizerScanIdenticalAcrossBatchWidths) {
  const auto p = reduced_model();
  const auto scalar =
      approx::optimise_tags_t_integer(p, approx::Objective::kMinQueueLength, 10, 40, 1);
  for (const std::size_t batch : {std::size_t{4}, std::size_t{5}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const auto batched = approx::optimise_tags_t_integer(
        p, approx::Objective::kMinQueueLength, 10, 40, batch);
    EXPECT_EQ(scalar.t, batched.t);
    EXPECT_EQ(scalar.solves, batched.solves);
    EXPECT_EQ(std::memcmp(&scalar.metrics, &batched.metrics, sizeof scalar.metrics), 0);
  }
}

TEST(SweepBatch, CoarseOptimizerIdenticalAcrossBatchWidths) {
  const auto p = reduced_h2_model();
  const auto scalar = approx::optimise_tags_h2_t_coarse(
      p, approx::Objective::kMinResponseTime, 4, 60, 6, 1);
  const auto batched = approx::optimise_tags_h2_t_coarse(
      p, approx::Objective::kMinResponseTime, 4, 60, 6, 7);
  EXPECT_EQ(scalar.t, batched.t);
  EXPECT_EQ(scalar.solves, batched.solves);
  EXPECT_EQ(std::memcmp(&scalar.metrics, &batched.metrics, sizeof scalar.metrics), 0);
}

TEST(SweepBatch, JournalReplayAcrossBatchWidths) {
  // Batch width stays out of the sweep digest: a journal written at one
  // width must replay byte-identically at another, in both directions.
  const auto round = [&](const std::string& tag, std::size_t write_batch,
                         std::size_t replay_batch) {
    SCOPED_TRACE(tag);
    const auto dir = fresh_dir(tag);
    core::SweepStats write_stats;
    std::vector<models::Metrics> written;
    {
      store::SolveStore store(dir);
      written = core::tags_t_sweep(
          reduced_model(), grid(),
          {.threads = 1, .shard_size = 3, .batch = write_batch}, &write_stats,
          &store);
    }
    EXPECT_EQ(write_stats.resumed, 0u);
    core::SweepStats replay_stats;
    std::vector<models::Metrics> replayed;
    {
      store::SolveStore store(dir);
      replayed = core::tags_t_sweep(
          reduced_model(), grid(),
          {.threads = 1, .shard_size = 3, .batch = replay_batch}, &replay_stats,
          &store);
    }
    EXPECT_TRUE(same_bytes(written, replayed));
    EXPECT_EQ(replay_stats.resumed, replay_stats.shards);
    expect_counters_equal(write_stats, replay_stats);
  };
  round("w1_r7", 1, 7);
  round("w7_r1", 7, 1);
}

}  // namespace
