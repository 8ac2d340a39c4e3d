// Golden regression fixtures: metric values for fig06/fig07 (exponential
// TAGS t-sweep) and fig09 (H2 TAGS) sample points, from exact solves at
// full precision. Drift here means a model's transition structure, its
// measure extraction or a solver's accuracy changed, not just
// floating-point noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "models/tags.hpp"
#include "models/tags_h2.hpp"

namespace {

using namespace tags;

struct GoldenPoint {
  double t;
  double mean_q1;
  double mean_q2;
  double throughput;
  double loss_rate;
  double response_time;
};

// Exact values: an explicit level-QBD solve (block-tridiagonal direct
// elimination; relative residual <= 2e-17) of each chain. The values once
// captured from Gauss-Seidel at the default 1e-11 target were off by up to
// 6.8e-7 (H2 t=16, mean_q2); a test that reran the same Gauss-Seidel could
// not see it.

// TagsParams defaults: lambda=5, mu=10, n=6, K1=K2=10 (fig06/fig07).
constexpr GoldenPoint kExponential[] = {
    {30.0, 0.71219112494082881, 0.24968303161906918, 4.9998402107253703,
     0.00015978927464034941, 0.19238097939540963},
    {51.0, 0.50764544837969972, 0.4271567988622772, 4.9999921572255399,
     7.8427744474507442e-06, 0.18696074270658297},
    {100.0, 0.29638521984213828, 0.65185873626426072, 4.9999730880822462,
     2.6911917766509525e-05, 0.18964981198930825},
};

// fig09 parameterisation: lambda=11, alpha=0.99, mu1/mu2=100, E[S]=0.1.
constexpr GoldenPoint kH2[] = {
    {10.0, 1.7883703110062388, 1.1034185703184345, 10.800720466210064,
     0.19927953378993959, 0.26774036883665336},
    {16.0, 1.5176060687441193, 1.3968979138820725, 10.93567267665235,
     0.064327323347659726, 0.26651346184205521},
    {40.0, 1.0921078716100787, 3.1446405394899988, 10.911752267879489,
     0.088247732120466923, 0.38827388187428269},
};

models::TagsModel exponential_at(double t) {
  models::TagsParams p;
  p.t = t;
  return models::TagsModel(p);
}

models::TagsH2Model h2_at(double t) {
  return models::TagsH2Model(models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, t));
}

void expect_close(double actual, double golden, double slack, const char* what, double t) {
  EXPECT_NEAR(actual, golden, slack * std::max(1.0, std::abs(golden)))
      << what << " at t=" << t;
}

void expect_matches(const models::Metrics& m, const GoldenPoint& g, double slack) {
  expect_close(m.mean_q1, g.mean_q1, slack, "mean_q1", g.t);
  expect_close(m.mean_q2, g.mean_q2, slack, "mean_q2", g.t);
  expect_close(m.throughput, g.throughput, slack, "throughput", g.t);
  expect_close(m.loss_rate, g.loss_rate, slack, "loss_rate", g.t);
  expect_close(m.response_time, g.response_time, slack, "response_time", g.t);
}

/// The solver chain is iterative, so a solve at a tight target (1e-13)
/// must land within 1e-9 relative of the exact values.
ctmc::SteadyStateOptions tight() {
  ctmc::SteadyStateOptions o;
  o.tol = 1e-13;
  return o;
}

TEST(GoldenRegression, TagsExponentialTimeoutSweep) {
  for (const GoldenPoint& g : kExponential) {
    expect_matches(exponential_at(g.t).metrics(tight()), g, 1e-9);
  }
}

TEST(GoldenRegression, TagsH2TimeoutSweep) {
  for (const GoldenPoint& g : kH2) expect_matches(h2_at(g.t).metrics(tight()), g, 1e-9);
}

TEST(GoldenRegression, StoredValuesAreExactSolves) {
  // The explicit exact solve reproduces the stored values (to the last
  // digits a different libm or compiler may move). One H2 point only — the
  // one the Gauss-Seidel capture missed most: its exact solve factors
  // levels hundreds of states wide and costs seconds.
  ctmc::SteadyStateOptions exact;
  exact.method = ctmc::SteadyStateMethod::kLevelQbd;
  for (const GoldenPoint& g : kExponential) {
    expect_matches(exponential_at(g.t).metrics(exact), g, 1e-12);
  }
  expect_matches(h2_at(kH2[1].t).metrics(exact), kH2[1], 1e-12);
}

TEST(GoldenRegression, DefaultOptionsLandNearExact) {
  // What the figures publish: kAuto at its default 1e-11 target.
  for (const GoldenPoint& g : kExponential) {
    expect_matches(exponential_at(g.t).metrics(), g, 1e-7);
  }
  for (const GoldenPoint& g : kH2) expect_matches(h2_at(g.t).metrics(), g, 1e-7);
}

TEST(GoldenRegression, RebindReachesSamePointAsFreshBuild) {
  // Sweeping onto a golden point via rebind must land on the same metrics
  // as constructing there directly (the fig07-style sweep path).
  models::TagsParams p;
  p.t = 30.0;
  models::TagsModel m(p);
  p.t = 51.0;
  m.rebind(p);
  const models::Metrics swept = m.metrics();
  const models::Metrics direct = models::TagsModel(p).metrics();
  EXPECT_EQ(swept.mean_q1, direct.mean_q1);
  EXPECT_EQ(swept.mean_q2, direct.mean_q2);
  EXPECT_EQ(swept.throughput, direct.throughput);
  EXPECT_EQ(swept.response_time, direct.response_time);
}

}  // namespace
