#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/spreading.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {
namespace {

FiberSheet perturbed_sheet(std::uint64_t seed) {
  FiberSheet sheet(5, 5, 4.0, 4.0, {6.0, 6.0, 6.0}, 0.05, 0.01);
  SplitMix64 rng(seed);
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    sheet.position(i) += Vec3{rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3)};
  }
  compute_all_fiber_forces(sheet);
  return sheet;
}

TEST(InfluenceDomainTest, CoversFourNodesPerAxis) {
  const InfluenceDomain d = influence_domain({5.3, 7.9, 2.0});
  EXPECT_EQ(d.base[0], 4);  // floor(5.3) - 1
  EXPECT_EQ(d.base[1], 6);
  EXPECT_EQ(d.base[2], 1);
}

TEST(InfluenceDomainTest, WeightsArePartitionOfUnityPerAxis) {
  const InfluenceDomain d = influence_domain({5.37, 7.91, 2.24});
  auto sum4 = [](const Real* w) { return w[0] + w[1] + w[2] + w[3]; };
  EXPECT_NEAR(sum4(d.wx), 1.0, 1e-12);
  EXPECT_NEAR(sum4(d.wy), 1.0, 1e-12);
  EXPECT_NEAR(sum4(d.wz), 1.0, 1e-12);
}

TEST(InfluenceDomainTest, OnGridPointTouchesThreeNodes) {
  // At an exact lattice coordinate phi4(-2) = 0, so only 3 of the 4
  // per-axis weights are non-zero, centered on the point.
  const InfluenceDomain d = influence_domain({5.0, 5.0, 5.0});
  EXPECT_NEAR(d.wx[0] + d.wx[1] + d.wx[2] + d.wx[3], 1.0, 1e-12);
  EXPECT_NEAR(d.wx[1], 0.5, 1e-12);  // phi4(0)
}

TEST(Spreading, TotalSpreadForceEqualsTotalFiberForceTimesArea) {
  // Conservation: the delta weights sum to one, so the fluid receives
  // exactly area * sum of elastic forces.
  FluidGrid grid(16, 16, 16);
  grid.reset_forces({});
  FiberSheet sheet = perturbed_sheet(1);
  spread_force(sheet, grid, 0, sheet.num_fibers());

  Vec3 fluid_total{};
  for (Size n = 0; n < grid.num_nodes(); ++n) fluid_total += grid.force(n);
  Vec3 fiber_total{};
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    fiber_total += sheet.elastic_force(i);
  }
  fiber_total *= sheet.node_area();
  EXPECT_NEAR(fluid_total.x, fiber_total.x, 1e-12);
  EXPECT_NEAR(fluid_total.y, fiber_total.y, 1e-12);
  EXPECT_NEAR(fluid_total.z, fiber_total.z, 1e-12);
}

TEST(Spreading, ForceIsLocalizedToInfluentialDomain) {
  FluidGrid grid(16, 16, 16);
  grid.reset_forces({});
  // One-node "sheet" with a known force at (8.5, 8.5, 8.5).
  FiberSheet sheet(1, 1, 1.0, 1.0, {8.5, 8.5, 8.5}, 0.0, 0.0);
  sheet.elastic_force(0) = {1.0, 0.0, 0.0};
  spread_force(sheet, grid, 0, 1);
  for (Index x = 0; x < 16; ++x) {
    for (Index y = 0; y < 16; ++y) {
      for (Index z = 0; z < 16; ++z) {
        const bool inside = (x >= 7 && x <= 10) && (y >= 7 && y <= 10) &&
                            (z >= 7 && z <= 10);
        const Real fx = grid.fx(grid.index(x, y, z));
        if (inside) {
          EXPECT_GT(fx, 0.0) << x << "," << y << "," << z;
        } else {
          EXPECT_EQ(fx, 0.0) << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST(Spreading, PeriodicWrapNearBoundary) {
  FluidGrid grid(8, 8, 8);
  grid.reset_forces({});
  FiberSheet sheet(1, 1, 1.0, 1.0, {0.5, 4.0, 4.0}, 0.0, 0.0);
  sheet.elastic_force(0) = {0.0, 0.0, 1.0};
  spread_force(sheet, grid, 0, 1);
  // base x = floor(0.5) - 1 = -1 -> wraps to 7.
  EXPECT_GT(grid.fz(grid.index(7, 4, 4)), 0.0);
  Vec3 total{};
  for (Size n = 0; n < grid.num_nodes(); ++n) total += grid.force(n);
  EXPECT_NEAR(total.z, sheet.node_area() * 1.0, 1e-12);
}

TEST(Spreading, FiberRangeDecompositionMatchesFullSweep) {
  FluidGrid a(16, 16, 16), b(16, 16, 16);
  a.reset_forces({});
  b.reset_forces({});
  FiberSheet sheet = perturbed_sheet(3);
  spread_force(sheet, a, 0, 5);
  spread_force(sheet, b, 0, 2);
  spread_force(sheet, b, 2, 3);
  spread_force(sheet, b, 3, 5);
  for (Size n = 0; n < a.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(a.fx(n), b.fx(n));
  }
}

TEST(Spreading, PreservesExistingBodyForce) {
  FluidGrid grid(16, 16, 16);
  grid.reset_forces({1e-4, 0.0, 0.0});
  FiberSheet sheet = perturbed_sheet(4);
  spread_force(sheet, grid, 0, sheet.num_fibers());
  // A node far from the sheet keeps exactly the body force.
  EXPECT_DOUBLE_EQ(grid.fx(grid.index(0, 0, 0)), 1e-4);
}

}  // namespace
}  // namespace lbmib
