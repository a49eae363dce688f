#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lbm/collision.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/mrt.hpp"
#include "lbm/streaming.hpp"

namespace lbmib {
namespace {

void randomize(FluidGrid& grid, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (Size node = 0; node < grid.num_nodes(); ++node) {
    for (int dir = 0; dir < kQ; ++dir) {
      grid.df(dir, node) =
          d3q19::w[static_cast<Size>(dir)] * (1.0 + 0.1 * rng.next_double());
    }
  }
}

TEST(MrtOperator, MomentRowsAreOrthogonal) {
  const MrtOperator op(MrtRelaxation::from_tau(0.8));
  for (int r = 0; r < kQ; ++r) {
    for (int s = r + 1; s < kQ; ++s) {
      Real dot = 0.0;
      for (int i = 0; i < kQ; ++i) dot += op.m(r, i) * op.m(s, i);
      EXPECT_NEAR(dot, 0.0, 1e-10) << "rows " << r << ", " << s;
    }
  }
}

TEST(MrtOperator, InverseIsExact) {
  const MrtOperator op(MrtRelaxation::from_tau(0.8));
  for (int i = 0; i < kQ; ++i) {
    for (int j = 0; j < kQ; ++j) {
      Real sum = 0.0;
      for (int r = 0; r < kQ; ++r) sum += op.m_inv(i, r) * op.m(r, j);
      EXPECT_NEAR(sum, i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(MrtOperator, RejectsUnstableRates) {
  MrtRelaxation r = MrtRelaxation::from_tau(0.8);
  r.s_e = 2.0;
  EXPECT_THROW(MrtOperator{r}, Error);
  r = MrtRelaxation::from_tau(0.8);
  r.s_q = 0.0;
  EXPECT_THROW(MrtOperator{r}, Error);
  EXPECT_THROW(MrtOperator{MrtRelaxation::from_tau(0.49)}, Error);
}

TEST(Mrt, ConservesMassAndMomentumWithoutForce) {
  FluidGrid grid(6, 6, 6);
  randomize(grid, 1);
  const Real mass = grid.total_mass();
  const Vec3 p = grid.total_momentum();
  const MrtOperator op(MrtRelaxation::from_tau(0.8));
  collide_range(grid, 0.8, 0, grid.num_nodes(), &op);
  EXPECT_NEAR(grid.total_mass(), mass, 1e-10);
  const Vec3 q = grid.total_momentum();
  EXPECT_NEAR(q.x, p.x, 1e-11);
  EXPECT_NEAR(q.y, p.y, 1e-11);
  EXPECT_NEAR(q.z, p.z, 1e-11);
}

TEST(Mrt, ForceAddsExactlyOneFPerNode) {
  // Like BGK with Guo forcing, each node's momentum must grow by exactly
  // F per step regardless of the relaxation rates.
  FluidGrid grid(4, 4, 4);
  const Vec3 force{1e-3, -2e-3, 5e-4};
  grid.reset_forces(force);
  const MrtOperator op(MrtRelaxation::from_tau(0.9));
  collide_range(grid, 0.9, 0, grid.num_nodes(), &op);
  const Vec3 p = grid.total_momentum();
  EXPECT_NEAR(p.x, 64 * force.x, 1e-12);
  EXPECT_NEAR(p.y, 64 * force.y, 1e-12);
  EXPECT_NEAR(p.z, 64 * force.z, 1e-12);
}

TEST(Mrt, EquilibriumIsFixedPoint) {
  const Vec3 u0{0.03, -0.02, 0.01};
  FluidGrid grid(4, 4, 4, 1.1, u0);
  const MrtOperator op(MrtRelaxation::from_tau(0.7));
  collide_range(grid, 0.7, 0, grid.num_nodes(), &op);
  for (Size n = 0; n < grid.num_nodes(); ++n) {
    for (int dir = 0; dir < kQ; ++dir) {
      EXPECT_NEAR(grid.df(dir, n), d3q19::equilibrium(dir, 1.1, u0),
                  1e-13);
    }
  }
}

TEST(Mrt, UniformRatesReduceToBgk) {
  // With every rate equal to 1/tau, MRT must reproduce the BGK collision
  // (including Guo forcing) to round-off.
  FluidGrid a(6, 6, 6), b(6, 6, 6);
  randomize(a, 7);
  randomize(b, 7);
  const Vec3 force{2e-4, -1e-4, 3e-4};
  a.reset_forces(force);
  b.reset_forces(force);
  const Real tau = 0.8;
  collide_range(a, tau, 0, a.num_nodes());
  const MrtOperator op(MrtRelaxation::uniform(tau));
  collide_range(b, tau, 0, b.num_nodes(), &op);
  for (Size n = 0; n < a.num_nodes(); ++n) {
    for (int dir = 0; dir < kQ; ++dir) {
      EXPECT_NEAR(a.df(dir, n), b.df(dir, n), 1e-13)
          << "node " << n << " dir " << dir;
    }
  }
}

TEST(Mrt, SkipsSolidNodes) {
  FluidGrid grid(4, 4, 4);
  grid.set_solid(5, true);
  grid.df(3, 5) = 99.0;
  const MrtOperator op(MrtRelaxation::from_tau(0.8));
  collide_range(grid, 0.8, 0, grid.num_nodes(), &op);
  EXPECT_EQ(grid.df(3, 5), 99.0);
}

TEST(Mrt, PoiseuilleViscosityMatchesSNu) {
  // The split-rate MRT must still produce nu = cs^2 (1/s_nu - 1/2): drive
  // a planar channel and compare against the analytic parabola.
  constexpr Index kNx = 4, kNy = 12, kNz = 4;
  constexpr Real kTau = 0.8, kForce = 1e-6;
  FluidGrid grid(kNx, kNy, kNz);
  for (Index x = 0; x < kNx; ++x) {
    for (Index z = 0; z < kNz; ++z) {
      grid.set_solid(grid.index(x, 0, z), true);
      grid.set_solid(grid.index(x, kNy - 1, z), true);
    }
  }
  const MrtOperator op(MrtRelaxation::from_tau(kTau));  // split rates
  for (int s = 0; s < 1200; ++s) {
    grid.reset_forces({kForce, 0.0, 0.0});
    collide_range(grid, kTau, 0, grid.num_nodes(), &op);
    stream_x_slab(grid, 0, kNx);
    update_velocity_range(grid, 0, grid.num_nodes());
    copy_distributions_range(grid, 0, grid.num_nodes());
  }
  const Real nu = (kTau - 0.5) / 3.0;
  const Real y0 = 0.5, y1 = static_cast<Real>(kNy) - 1.5;
  for (Index y = 2; y < kNy - 2; ++y) {
    const Real expected = kForce / (2.0 * nu) *
                          (static_cast<Real>(y) - y0) *
                          (y1 - static_cast<Real>(y));
    EXPECT_NEAR(grid.ux(grid.index(2, y, 2)), expected, 0.04 * expected)
        << "y=" << y;
  }
}

TEST(Mrt, DefaultRatesMatchDHumieres) {
  const MrtRelaxation r = MrtRelaxation::from_tau(0.8);
  EXPECT_DOUBLE_EQ(r.s_nu, 1.0 / 0.8);
  EXPECT_DOUBLE_EQ(r.s_e, 1.19);
  EXPECT_DOUBLE_EQ(r.s_eps, 1.4);
  EXPECT_DOUBLE_EQ(r.s_q, 1.2);
  EXPECT_DOUBLE_EQ(r.s_m, 1.98);
}

}  // namespace
}  // namespace lbmib
