// Parameterized property sweeps across module boundaries: invariants that
// must hold for families of random instances, not just hand-picked cases.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "basis/hermite.hpp"
#include "core/lar.hpp"
#include "core/omp.hpp"
#include "linalg/vector_ops.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "support/quadrature.hpp"

namespace rsm {
namespace {

// ---------------------------------------------------------------- solvers

class SolverAgreementSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverAgreementSweep, GreedyFamilyAgreesOnWellSeparatedTruth) {
  // With well-separated coefficients on a random Gaussian design, OMP and
  // the LAR support both land on the planted truth.
  Rng rng(GetParam());
  const Index k = 90, m = 250, p = 5;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::set<Index> support;
  while (static_cast<Index>(support.size()) < p)
    support.insert(rng.uniform_index(m));
  std::vector<Real> f(static_cast<std::size_t>(k), 0.0);
  for (Index s : support) {
    const Real c = (rng.uniform() < 0.5 ? -1.0 : 1.0) * (1.0 + rng.uniform());
    axpy(c, g.col(s), f);
  }

  const SolverPath omp = OmpSolver().fit_path(g, f, p);
  const std::set<Index> omp_sup(omp.selection_order.begin(),
                                omp.selection_order.end());
  EXPECT_EQ(omp_sup, support) << "OMP";

  const SolverPath lar = LarSolver().fit_path(g, f, p);
  const std::vector<Index> ls = lar.support(lar.num_steps() - 1);
  EXPECT_EQ(std::set<Index>(ls.begin(), ls.end()), support) << "LAR";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreementSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ------------------------------------------------------------- quadrature

class QuadratureExactness : public ::testing::TestWithParam<int> {};

TEST_P(QuadratureExactness, IntegratesHighestExactMonomial) {
  // An n-point rule integrates x^(2n-2) exactly: E[x^{2m}] = (2m-1)!!.
  const int n = GetParam();
  const int power = 2 * n - 2;
  Real expected = 1;
  for (int i = power - 1; i >= 1; i -= 2) expected *= i;
  const Real got = normal_expectation(
      [power](Real x) { return std::pow(x, power); }, n);
  EXPECT_NEAR(got / std::max(expected, Real{1}),
              expected / std::max(expected, Real{1}), 1e-8)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Orders, QuadratureExactness,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16, 24));

// -------------------------------------------------------------- transient

struct RcCase {
  Real resistance;
  Real capacitance;
};

class TransientRcSweep : public ::testing::TestWithParam<RcCase> {};

TEST_P(TransientRcSweep, StepResponseMatchesAnalyticAcrossDecades) {
  const RcCase c = GetParam();
  const Real tau = c.resistance * c.capacitance;
  spice::Netlist n;
  const auto in = n.node("in");
  const auto out = n.node("out");
  const auto vin = n.add_vsource(in, spice::kGround, 0.0);
  n.add_resistor(in, out, c.resistance);
  n.add_capacitor(out, spice::kGround, c.capacitance);

  spice::TransientOptions opt;
  opt.timestep = tau / 100;
  opt.stop_time = 4 * tau;
  opt.start_from_dc = false;
  opt.update_sources = [&](Real, spice::Netlist& nl) {
    nl.vsource(vin).dc = 1.0;
  };
  const spice::TransientResult res = spice::run_transient(n, opt);
  for (std::size_t s = 10; s < res.time.size(); s += 37) {
    const Real expected = 1.0 - std::exp(-res.time[s] / tau);
    EXPECT_NEAR(res.voltage(s, out), expected, 0.01)
        << "R=" << c.resistance << " C=" << c.capacitance;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decades, TransientRcSweep,
    ::testing::Values(RcCase{1e2, 1e-15}, RcCase{1e3, 1e-12},
                      RcCase{1e4, 1e-9}, RcCase{1e6, 1e-12},
                      RcCase{50.0, 5e-13}));

// ---------------------------------------------------- hermite consistency

class HermiteConsistency : public ::testing::TestWithParam<int> {};

TEST_P(HermiteConsistency, SquareIntegratesToOne) {
  // E[g_n(X)^2] == 1 exactly, via a rule of matching exactness.
  const int order = GetParam();
  const Real got = normal_expectation(
      [order](Real x) {
        const Real v = hermite_normalized(order, x);
        return v * v;
      },
      order + 1);
  EXPECT_NEAR(got, 1.0, 1e-9) << "order " << order;
}

INSTANTIATE_TEST_SUITE_P(Orders, HermiteConsistency,
                         ::testing::Values(0, 1, 2, 3, 4, 6, 9, 12, 16, 20));

}  // namespace
}  // namespace rsm
