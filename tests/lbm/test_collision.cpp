#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lbm/collision.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {
namespace {

/// Fill the grid with a randomized but positive distribution state.
void randomize(FluidGrid& grid, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (Size node = 0; node < grid.num_nodes(); ++node) {
    for (int dir = 0; dir < kQ; ++dir) {
      grid.df(dir, node) =
          d3q19::w[static_cast<Size>(dir)] * (1.0 + 0.1 * rng.next_double());
    }
  }
}

TEST(Collision, ConservesMassWithoutForce) {
  FluidGrid grid(6, 6, 6);
  randomize(grid, 1);
  const Real mass_before = grid.total_mass();
  collide_range(grid, 0.8, 0, grid.num_nodes());
  EXPECT_NEAR(grid.total_mass(), mass_before, 1e-11);
}

TEST(Collision, ConservesMomentumWithoutForce) {
  FluidGrid grid(6, 6, 6);
  randomize(grid, 2);
  const Vec3 p_before = grid.total_momentum();
  collide_range(grid, 0.8, 0, grid.num_nodes());
  const Vec3 p_after = grid.total_momentum();
  EXPECT_NEAR(p_after.x, p_before.x, 1e-12);
  EXPECT_NEAR(p_after.y, p_before.y, 1e-12);
  EXPECT_NEAR(p_after.z, p_before.z, 1e-12);
}

TEST(Collision, ConservesMassWithForce) {
  FluidGrid grid(6, 6, 6);
  randomize(grid, 3);
  grid.reset_forces({1e-4, -2e-4, 3e-4});
  const Real mass_before = grid.total_mass();
  collide_range(grid, 0.8, 0, grid.num_nodes());
  EXPECT_NEAR(grid.total_mass(), mass_before, 1e-11);
}

TEST(Collision, ForceAddsMomentum) {
  // After collision with Guo forcing, total momentum grows by
  // (1 - 1/(2tau)) F per node from the source term; the remaining F/(2tau)
  // arrives via the equilibrium shift. Together one full F per node per
  // step — verified through two half-contributions.
  FluidGrid grid(4, 4, 4);  // uniform equilibrium at rest
  const Vec3 force{1e-3, 0.0, 0.0};
  grid.reset_forces(force);
  const Real tau = 0.8;
  collide_range(grid, tau, 0, grid.num_nodes());
  const Vec3 p_after = grid.total_momentum();
  // At rest, the pre-collision momentum is 0 and u = F/(2 rho). The
  // distribution relaxes toward momentum rho*u = F/2, contributing
  // (1/tau)*(F/2); the Guo source adds (1-1/(2tau))*F.
  const Real expected_per_node =
      (1.0 / tau) * 0.5 * force.x + (1.0 - 0.5 / tau) * force.x;
  EXPECT_NEAR(p_after.x, 64 * expected_per_node, 1e-12);
  EXPECT_NEAR(p_after.y, 0.0, 1e-14);
}

TEST(Collision, EquilibriumIsFixedPointWithoutForce) {
  const Vec3 u0{0.04, -0.02, 0.01};
  FluidGrid grid(4, 4, 4, 1.1, u0);
  FluidGrid reference(4, 4, 4, 1.1, u0);
  collide_range(grid, 0.7, 0, grid.num_nodes());
  for (Size node = 0; node < grid.num_nodes(); ++node) {
    for (int dir = 0; dir < kQ; ++dir) {
      EXPECT_NEAR(grid.df(dir, node), reference.df(dir, node), 1e-14);
    }
  }
}

TEST(Collision, RelaxesTowardEquilibrium) {
  // A perturbed state must be strictly closer to equilibrium afterwards.
  FluidGrid grid(4, 4, 4);
  const Size node = grid.index(2, 2, 2);
  grid.df(1, node) += 0.01;
  grid.df(2, node) -= 0.01;

  auto distance_to_eq = [&](Size n) {
    Real rho = 0.0;
    Vec3 mom{};
    for (int i = 0; i < kQ; ++i) {
      rho += grid.df(i, n);
      mom += grid.df(i, n) * d3q19::c(i);
    }
    const Vec3 u = mom / rho;
    Real dist = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const Real d = grid.df(i, n) - d3q19::equilibrium(i, rho, u);
      dist += d * d;
    }
    return dist;
  };

  const Real before = distance_to_eq(node);
  collide_range(grid, 0.9, 0, grid.num_nodes());
  const Real after = distance_to_eq(node);
  EXPECT_LT(after, before);
  EXPECT_GT(before, 0.0);
}

TEST(Collision, SkipsSolidNodes) {
  FluidGrid grid(4, 4, 4);
  const Size node = grid.index(1, 1, 1);
  grid.set_solid(node, true);
  grid.df(5, node) = 123.0;  // garbage that collision must not touch
  collide_range(grid, 0.8, 0, grid.num_nodes());
  EXPECT_EQ(grid.df(5, node), 123.0);
}

TEST(Collision, RangeRestrictsWork) {
  FluidGrid grid(4, 4, 4);
  const Size node_in = 3, node_out = 40;
  grid.df(1, node_in) += 0.01;
  grid.df(1, node_out) += 0.01;
  const Real before_out = grid.df(1, node_out);
  collide_range(grid, 0.8, 0, 32);  // only first half
  EXPECT_EQ(grid.df(1, node_out), before_out);
  EXPECT_NE(grid.df(1, node_in), 0.01 + d3q19::w[1]);
}

TEST(Collision, CollideNodeMatchesCollideRange) {
  FluidGrid a(2, 2, 2), b(2, 2, 2);
  SplitMix64 rng(7);
  for (Size node = 0; node < a.num_nodes(); ++node) {
    for (int dir = 0; dir < kQ; ++dir) {
      const Real v =
          d3q19::w[static_cast<Size>(dir)] * (1.0 + 0.2 * rng.next_double());
      a.df(dir, node) = v;
      b.df(dir, node) = v;
    }
  }
  const Vec3 force{1e-4, 2e-4, -1e-4};
  a.reset_forces(force);
  b.reset_forces(force);

  collide_range(a, 0.8, 0, a.num_nodes());
  for (Size node = 0; node < b.num_nodes(); ++node) {
    Real g[kQ];
    for (int dir = 0; dir < kQ; ++dir) g[dir] = b.df(dir, node);
    collide_node_array(g, 0.8, force);
    for (int dir = 0; dir < kQ; ++dir) b.df(dir, node) = g[dir];
  }
  for (Size node = 0; node < a.num_nodes(); ++node) {
    for (int dir = 0; dir < kQ; ++dir) {
      EXPECT_DOUBLE_EQ(a.df(dir, node), b.df(dir, node));
    }
  }
}

}  // namespace
}  // namespace lbmib
