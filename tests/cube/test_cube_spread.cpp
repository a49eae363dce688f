#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "lbm/fluid_grid.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {
namespace {

FiberSheet perturbed_sheet(std::uint64_t seed) {
  FiberSheet sheet(6, 6, 5.0, 5.0, {5.0, 5.0, 5.0}, 0.05, 0.01);
  SplitMix64 rng(seed);
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    sheet.position(i) += Vec3{rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3)};
  }
  compute_all_fiber_forces(sheet);
  return sheet;
}

TEST(CubeSpread, UnlockedMatchesPlanarSpreading) {
  FluidGrid planar(16, 16, 16);
  planar.reset_forces({});
  CubeGrid cubes(16, 16, 16, 4);
  cubes.reset_forces({});
  const FiberSheet sheet = perturbed_sheet(1);

  spread_force(sheet, planar, 0, sheet.num_fibers());
  cube_spread_force_unlocked(sheet, cubes, 0, sheet.num_fibers());

  FluidGrid back(16, 16, 16);
  cubes.to_planar(back);
  for (Size n = 0; n < planar.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(back.fx(n), planar.fx(n)) << n;
    EXPECT_DOUBLE_EQ(back.fy(n), planar.fy(n)) << n;
    EXPECT_DOUBLE_EQ(back.fz(n), planar.fz(n)) << n;
  }
}

TEST(CubeSpread, LockedSingleThreadMatchesUnlocked) {
  CubeGrid a(16, 16, 16, 4), b(16, 16, 16, 4);
  a.reset_forces({});
  b.reset_forces({});
  const FiberSheet sheet = perturbed_sheet(2);
  const CubeDistribution dist(4, 4, 4, balanced_mesh(1));
  std::vector<SpinLock> locks(1);
  cube_spread_force(sheet, a, dist, locks, 0, sheet.num_fibers());
  cube_spread_force_unlocked(sheet, b, 0, sheet.num_fibers());
  for (Size cube = 0; cube < a.num_cubes(); ++cube) {
    for (Size local = 0; local < a.nodes_per_cube(); ++local) {
      // Same adds in the same order, but the two template instantiations
      // may contract multiply-adds differently (-ffp-contract), so allow
      // last-bit noise.
      const Vec3 got = a.force(cube, local);
      const Vec3 want = b.force(cube, local);
      EXPECT_NEAR(got.x, want.x, 1e-16);
      EXPECT_NEAR(got.y, want.y, 1e-16);
      EXPECT_NEAR(got.z, want.z, 1e-16);
    }
  }
}

TEST(CubeSpread, ConcurrentSpreadingIsLossFree) {
  // Many threads spreading into overlapping influential domains through
  // owner locks: totals must match the single-threaded result.
  constexpr int kThreads = 4;
  CubeGrid grid(16, 16, 16, 4);
  grid.reset_forces({});
  const FiberSheet sheet = perturbed_sheet(3);
  const CubeDistribution dist(4, 4, 4, balanced_mesh(kThreads));
  std::vector<SpinLock> locks(kThreads);

  ThreadTeam team(kThreads);
  team.run([&](int tid) {
    for (Index f = 0; f < sheet.num_fibers(); ++f) {
      if (fiber2thread(f, sheet.num_fibers(), kThreads) == tid) {
        cube_spread_force(sheet, grid, dist, locks, f, f + 1);
      }
    }
  });

  CubeGrid reference(16, 16, 16, 4);
  reference.reset_forces({});
  cube_spread_force_unlocked(sheet, reference, 0, sheet.num_fibers());
  for (Size cube = 0; cube < grid.num_cubes(); ++cube) {
    for (Size local = 0; local < grid.nodes_per_cube(); ++local) {
      const Vec3 got = grid.force(cube, local);
      const Vec3 want = reference.force(cube, local);
      EXPECT_NEAR(got.x, want.x, 1e-14);
      EXPECT_NEAR(got.y, want.y, 1e-14);
      EXPECT_NEAR(got.z, want.z, 1e-14);
    }
  }
}

/// Bit-for-bit force equality over every node (NaN payloads included).
void expect_same_force_bits(const CubeGrid& got, const CubeGrid& want) {
  for (Size cube = 0; cube < got.num_cubes(); ++cube) {
    for (Size local = 0; local < got.nodes_per_cube(); ++local) {
      const Vec3 g = got.force(cube, local);
      const Vec3 w = want.force(cube, local);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g.x),
                std::bit_cast<std::uint64_t>(w.x))
          << "cube " << cube << " local " << local;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g.y),
                std::bit_cast<std::uint64_t>(w.y))
          << "cube " << cube << " local " << local;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(g.z),
                std::bit_cast<std::uint64_t>(w.z))
          << "cube " << cube << " local " << local;
    }
  }
}

/// Owner-computes spread, once per tid into one grid, against the
/// single-writer spread: bit-identical for every mesh, policy and cube
/// size (cube_size 1 puts 4 distinct cubes on each axis of a node's
/// support, 2 up to 3).
void expect_owned_matches_unlocked(const FiberSheet& sheet) {
  constexpr Index kN = 12;  // divisible by every cube size below
  for (Index k : {1, 2, 3, 4}) {
    CubeGrid want(kN, kN, kN, k);
    want.reset_forces({});
    cube_spread_force_unlocked(sheet, want, 0, sheet.num_fibers());
    for (int threads : {4, 8}) {
      for (DistributionPolicy policy :
           {DistributionPolicy::kBlock, DistributionPolicy::kCyclic}) {
        SCOPED_TRACE("cube_size " + std::to_string(k) + ", " +
                     std::to_string(threads) + " threads, " +
                     (policy == DistributionPolicy::kBlock ? "block"
                                                           : "cyclic"));
        CubeGrid got(kN, kN, kN, k);
        got.reset_forces({});
        const CubeDistribution dist(got.cubes_x(), got.cubes_y(),
                                    got.cubes_z(), balanced_mesh(threads),
                                    policy);
        const std::vector<int> owner = dist.owner_table();
        for (int tid = 0; tid < threads; ++tid) {
          cube_spread_force_owned(sheet, got, owner, tid);
        }
        expect_same_force_bits(got, want);
      }
    }
  }
}

TEST(CubeSpread, OwnedPerThreadMatchesUnlockedBitForBit) {
  expect_owned_matches_unlocked(perturbed_sheet(6));
}

TEST(CubeSpread, OwnedMatchesUnlockedAcrossPeriodicBoundary) {
  // Origin near the top corner: the sheet runs past x, y, z = 12 and its
  // supports wrap onto cubes at the low faces.
  FiberSheet sheet(6, 6, 5.0, 5.0, {9.7, 9.3, 9.55}, 0.05, 0.01);
  SplitMix64 rng(7);
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    sheet.position(i) += Vec3{rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3)};
  }
  compute_all_fiber_forces(sheet);
  expect_owned_matches_unlocked(sheet);
}

TEST(CubeSpread, OwnedMatchesUnlockedOnClampedPositions) {
  // influence_domain's clamp path: a NaN and an astronomically large
  // position both take base 0. The reject test must agree on the
  // support and nothing may index out of range.
  FiberSheet sheet = perturbed_sheet(8);
  sheet.position(3) = Vec3{std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::quiet_NaN()};
  sheet.position(10) = Vec3{1e300, -1e300, 1e300};
  expect_owned_matches_unlocked(sheet);

  CubeGrid grid(12, 12, 12, 4);
  grid.reset_forces({});
  cube_spread_force_unlocked(sheet, grid, 0, sheet.num_fibers());
  const CubeGrid::NodeRef r = grid.locate(1, 1, 1);
  EXPECT_TRUE(std::isnan(grid.force(r.cube, r.local).x));
}

TEST(CubeSpread, MoveFibersMatchesPlanar) {
  FluidGrid planar(16, 16, 16);
  SplitMix64 rng(4);
  for (Size n = 0; n < planar.num_nodes(); ++n) {
    planar.set_velocity(n, {rng.next_double(-0.05, 0.05),
                            rng.next_double(-0.05, 0.05),
                            rng.next_double(-0.05, 0.05)});
  }
  CubeGrid cubes(16, 16, 16, 4);
  cubes.from_planar(planar);

  FiberSheet s1 = perturbed_sheet(5);
  FiberSheet s2(6, 6, 5.0, 5.0, {5.0, 5.0, 5.0}, 0.05, 0.01);
  for (Size i = 0; i < s1.num_nodes(); ++i) s2.position(i) = s1.position(i);

  move_fibers(s1, planar, 0, s1.num_fibers());
  cube_move_fibers(s2, cubes, 0, s2.num_fibers());
  for (Size i = 0; i < s1.num_nodes(); ++i) {
    EXPECT_NEAR(s1.position(i).x, s2.position(i).x, 1e-15) << i;
    EXPECT_NEAR(s1.position(i).y, s2.position(i).y, 1e-15) << i;
    EXPECT_NEAR(s1.position(i).z, s2.position(i).z, 1e-15) << i;
  }
}

}  // namespace
}  // namespace lbmib
