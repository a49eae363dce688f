#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cube_solver.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "cube/spread_bins.hpp"
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
  // On the 16 x 16 x 8 grid at cube size 8 the sheet (z in [5, 10])
  // wraps z inside the one cube along z: a support column's targets
  // z = 6, 7, 0, 1 are two runs of that cube, not one.
  const FiberSheet sheet = perturbed_sheet(1);
  for (const Index nz : {16, 8}) {
    const Index k = nz == 16 ? 4 : 8;
    SCOPED_TRACE("16x16x" + std::to_string(nz) + ", cube_size " +
                 std::to_string(k));
    FluidGrid planar(16, 16, nz);
    planar.reset_forces({});
    CubeGrid cubes(16, 16, nz, k);
    cubes.reset_forces({});

    spread_force(sheet, planar, 0, sheet.num_fibers());
    cube_spread_force_unlocked(sheet, cubes, 0, sheet.num_fibers());

    FluidGrid back(16, 16, nz);
    cubes.to_planar(back);
    for (Size n = 0; n < planar.num_nodes(); ++n) {
      EXPECT_DOUBLE_EQ(back.fx(n), planar.fx(n)) << n;
      EXPECT_DOUBLE_EQ(back.fy(n), planar.fy(n)) << n;
      EXPECT_DOUBLE_EQ(back.fz(n), planar.fz(n)) << n;
    }
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

/// Owner-computes spread through the bins, once per owner into one grid,
/// against a body-force reset plus the single-writer spread: bit-identical
/// for every mesh, policy and cube size (cube_size 1 puts 4 distinct cubes
/// on each axis of a node's support, 2 up to 3). The 24 x 16 x 8 grid at
/// cube size 8 has one cube along z, which a support that wraps z reaches
/// from both ends. The owners' grid starts from a stale force field with
/// every cube marked, so their resets must overwrite every cube.
void expect_owned_matches_unlocked(const Structure& structure) {
  struct Shape {
    Index nx, ny, nz, k;
  };
  const Shape shapes[] = {{24, 24, 24, 1}, {24, 24, 24, 2},
                          {24, 24, 24, 3}, {24, 24, 24, 4},
                          {24, 24, 24, 8}, {24, 16, 8, 8}};
  const Vec3 body_force{1e-5, -2e-6, 3e-6};
  for (const Shape& shape : shapes) {
    CubeGrid want(shape.nx, shape.ny, shape.nz, shape.k);
    want.reset_forces(body_force);
    for (const FiberSheet& sheet : structure) {
      cube_spread_force_unlocked(sheet, want, 0, sheet.num_fibers());
    }
    for (int owners : {4, 5, 8}) {
      for (DistributionPolicy policy :
           {DistributionPolicy::kBlock, DistributionPolicy::kCyclic}) {
        SCOPED_TRACE(std::to_string(shape.nx) + "x" +
                     std::to_string(shape.ny) + "x" +
                     std::to_string(shape.nz) + ", cube_size " +
                     std::to_string(shape.k) + ", " +
                     std::to_string(owners) + " owners, " +
                     (policy == DistributionPolicy::kBlock ? "block"
                                                           : "cyclic"));
        CubeGrid got(shape.nx, shape.ny, shape.nz, shape.k);
        got.reset_forces({7.0, -7.0, 7.0});
        const CubeDistribution dist(got.cubes_x(), got.cubes_y(),
                                    got.cubes_z(), balanced_mesh(owners),
                                    policy);
        SpreadBins bins(structure, dist.owner_table(), owners, owners);
        SpreadMarks marks(bins);
        marks.mark_all();
        for (int t = 0; t < owners; ++t) bins.bin(structure, got, t);
        for (int owner = 0; owner < owners; ++owner) {
          cube_spread_force_owned(structure, got, bins, marks, owner,
                                  body_force);
        }
        expect_same_force_bits(got, want);
      }
    }
  }
}

TEST(CubeSpread, OwnedPerThreadMatchesUnlockedBitForBit) {
  expect_owned_matches_unlocked({perturbed_sheet(6)});
  // Two overlapping sheets: every owner must spread sheet 0's bins
  // before sheet 1's, whichever thread binned them.
  expect_owned_matches_unlocked({perturbed_sheet(6), perturbed_sheet(9)});
}

/// Whether any node of `cube` holds a force other than `f`, bit for bit.
bool force_differs(const CubeGrid& grid, Size cube, const Vec3& f) {
  for (Size local = 0; local < grid.nodes_per_cube(); ++local) {
    const Vec3 g = grid.force(cube, local);
    if (std::bit_cast<std::uint64_t>(g.x) != std::bit_cast<std::uint64_t>(f.x) ||
        std::bit_cast<std::uint64_t>(g.y) != std::bit_cast<std::uint64_t>(f.y) ||
        std::bit_cast<std::uint64_t>(g.z) != std::bit_cast<std::uint64_t>(f.z)) {
      return true;
    }
  }
  return false;
}

TEST(CubeSpread, OwnedResetsOnlyTheMarkedCubes) {
  // Kernel 4 over steps: each owner resets only the cubes its previous
  // spread marked, since every other cube already holds exactly the
  // body force. At cube size 2 a support spans up to three cubes per
  // axis. Over three spreads, the sheet moved between them, the field
  // equals a body-force reset plus the single-writer spread bit for bit,
  // the marks name exactly the cubes whose force is more than the body
  // force, and an unmarked cube no support reaches keeps what it held.
  const Vec3 body_force{1e-5, -2e-6, 3e-6};
  const Vec3 sentinel{7.0, -7.0, 7.0};
  Structure structure{perturbed_sheet(6)};
  CubeGrid got(24, 24, 24, 2);
  got.reset_forces(body_force);
  const Size far_cube = got.cube_id(11, 11, 11);  // nodes 22-23 per axis
  got.reset_forces(far_cube, sentinel);
  constexpr int kOwners = 4;
  const CubeDistribution dist(got.cubes_x(), got.cubes_y(), got.cubes_z(),
                              balanced_mesh(kOwners),
                              DistributionPolicy::kBlock);
  SpreadBins bins(structure, dist.owner_table(), kOwners, kOwners);
  SpreadMarks marks(bins);
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE("spread " + std::to_string(step));
    if (step > 0) {
      FiberSheet& sheet = structure.front();
      for (Size i = 0; i < sheet.num_nodes(); ++i) {
        sheet.position(i) += Vec3{1.3, -0.7, 0.4};
      }
      compute_all_fiber_forces(sheet);
    }
    CubeGrid want(24, 24, 24, 2);
    want.reset_forces(body_force);
    want.reset_forces(far_cube, sentinel);
    cube_spread_force_unlocked(structure.front(), want, 0,
                               structure.front().num_fibers());
    for (int t = 0; t < kOwners; ++t) bins.bin(structure, got, t);
    for (int owner = 0; owner < kOwners; ++owner) {
      cube_spread_force_owned(structure, got, bins, marks, owner,
                              body_force);
    }
    expect_same_force_bits(got, want);
    Size marked = 0;
    for (Size cube = 0; cube < got.num_cubes(); ++cube) {
      if (cube == far_cube) {
        EXPECT_FALSE(marks.marked(cube));
        continue;
      }
      EXPECT_EQ(marks.marked(cube), force_differs(got, cube, body_force))
          << "cube " << cube;
      marked += marks.marked(cube) ? 1 : 0;
    }
    EXPECT_GT(marked, 0u);
    EXPECT_LT(marked, got.num_cubes() / 4);
  }
}

/// A sheet whose origin sits near the top corner of a 24^3 grid: it runs
/// past x, y, z = 24 and its supports wrap onto cubes at the low faces.
FiberSheet wrapping_sheet() {
  FiberSheet sheet(6, 6, 5.0, 5.0, {21.7, 21.3, 21.55}, 0.05, 0.01);
  SplitMix64 rng(7);
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    sheet.position(i) += Vec3{rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3)};
  }
  compute_all_fiber_forces(sheet);
  return sheet;
}

/// influence_domain's clamp path: a NaN and an astronomically large
/// position both take base 0.
FiberSheet clamped_sheet() {
  FiberSheet sheet = perturbed_sheet(8);
  sheet.position(3) = Vec3{std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::quiet_NaN()};
  sheet.position(10) = Vec3{1e300, -1e300, 1e300};
  return sheet;
}

TEST(CubeSpread, OwnedMatchesUnlockedAcrossPeriodicBoundary) {
  expect_owned_matches_unlocked({wrapping_sheet()});
}

TEST(CubeSpread, OwnedMatchesUnlockedOnClampedPositions) {
  // The binning must agree with the spread on the support, and nothing
  // may index out of range.
  const FiberSheet sheet = clamped_sheet();
  expect_owned_matches_unlocked({sheet});

  CubeGrid grid(12, 12, 12, 4);
  grid.reset_forces({});
  cube_spread_force_unlocked(sheet, grid, 0, sheet.num_fibers());
  const CubeGrid::NodeRef r = grid.locate(1, 1, 1);
  EXPECT_TRUE(std::isnan(grid.force(r.cube, r.local).x));
}

TEST(CubeSpread, BinsHoldExactlyTheOwnersEachSupportReaches) {
  // 72 owners scattered over the 13824 cubes of a 24^3 grid at cube size
  // 1, so one support reaches up to 64 owners and owner ids pass 63: a
  // per-node owner set capped at 64 bits would fail here. Three binning
  // threads, run one after another.
  constexpr int kOwners = 72;
  constexpr int kThreads = 3;
  CubeGrid grid(24, 24, 24, 1);
  std::vector<int> owner(grid.num_cubes());
  for (Size c = 0; c < owner.size(); ++c) {
    owner[c] = static_cast<int>((c * 7919) % kOwners);
  }
  const Structure structure = {perturbed_sheet(11), wrapping_sheet(),
                               clamped_sheet()};
  SpreadBins bins(structure, owner, kOwners, kThreads);
  for (int t = 0; t < kThreads; ++t) bins.bin(structure, grid, t);

  Size binned = 0;
  for (Size s = 0; s < structure.size(); ++s) {
    const FiberSheet& sheet = structure[s];
    for (int t = 0; t < kThreads; ++t) {
      const auto [first, last] =
          SpreadBins::fiber_block(sheet.num_fibers(), t, kThreads);
      // Brute force: the owners of the cubes of all 64 lattice indices.
      std::vector<std::vector<std::uint32_t>> want(kOwners);
      for (Index f = first; f < last; ++f) {
        for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
          const Size node = sheet.id(f, j);
          const Vec3& p = sheet.position(node);
          std::vector<bool> reached(kOwners, false);
          for (Index a = 0; a < 4; ++a) {
            for (Index b = 0; b < 4; ++b) {
              for (Index c = 0; c < 4; ++c) {
                const CubeGrid::NodeRef r = grid.locate_periodic(
                    influence_base(p.x) + a, influence_base(p.y) + b,
                    influence_base(p.z) + c);
                reached[static_cast<Size>(owner[r.cube])] = true;
              }
            }
          }
          for (int o = 0; o < kOwners; ++o) {
            if (reached[static_cast<Size>(o)]) {
              want[static_cast<Size>(o)].push_back(
                  static_cast<std::uint32_t>(node));
            }
          }
        }
      }
      for (int o = 0; o < kOwners; ++o) {
        const std::span<const std::uint32_t> got = bins.nodes(s, t, o);
        EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  want[static_cast<Size>(o)])
            << "sheet " << s << ", thread " << t << ", owner " << o;
        binned += got.size();
      }
    }
  }
  Size total = 0;
  for (int o = 0; o < kOwners; ++o) total += bins.bin_size(o);
  EXPECT_EQ(total, binned);
  // Some support must reach an owner id the 64-bit cap would drop.
  Size high = 0;
  for (int o = 64; o < kOwners; ++o) high += bins.bin_size(o);
  EXPECT_GT(high, 0u);
}

TEST(CubeSpread, OwnedCubesListEachCubeOnceUnderItsOwner) {
  // The owner's cube list is what its kernel-4 reset and its fluid loops
  // sweep: every cube exactly once, in ascending id order.
  constexpr int kOwners = 5;
  std::vector<int> owner(60);
  for (Size c = 0; c < owner.size(); ++c) {
    owner[c] = static_cast<int>((c * 13) % kOwners);
  }
  owner[7] = 4;  // owners need not own equally many cubes
  const SpreadBins bins({perturbed_sheet(6)}, owner, kOwners, 2);
  Size listed = 0;
  for (int o = 0; o < kOwners; ++o) {
    std::vector<Size> want;
    for (Size c = 0; c < owner.size(); ++c) {
      if (owner[c] == o) want.push_back(c);
    }
    const std::span<const Size> got = bins.owned_cubes(o);
    EXPECT_EQ(std::vector<Size>(got.begin(), got.end()), want)
        << "owner " << o;
    listed += got.size();
  }
  EXPECT_EQ(listed, owner.size());
}

/// The benchmark's ib_dense_cube input with both sheet offsets fixed at
/// (0.5, 0.5, 0.5): two 104x104-node 30x30 sheets in a 64x48x48 channel,
/// cube 8, leading edges pinned, 4 threads.
SimulationParams ib_dense_cube_fixed_offsets() {
  SimulationParams p = presets::table1_sequential();
  p.nx = 64;
  p.ny = 48;
  p.nz = 48;
  p.cube_size = 8;
  p.num_threads = 4;
  p.num_fibers = 104;
  p.nodes_per_fiber = 104;
  p.sheet_width = 30.0;
  p.sheet_height = 30.0;
  p.sheet_origin = {12.5, 9.5, 9.5};
  p.pin_mode = PinMode::kLeadingEdge;
  p.extra_sheets.push_back({104, 104, 30.0, 30.0, {38.5, 9.5, 9.5}, 0.02,
                            0.002, 0.0, PinMode::kLeadingEdge});
  p.validate();
  return p;
}

TEST(CubeSpread, DenseSheetBinsShrinkToAboutAQuarterPerOwner) {
  // Each of 4 owners walks only its bin: about N/4 of the N fiber nodes
  // plus the nodes whose support straddles its boundary, where the walk
  // of every node by every owner visited N each.
  CubeSolver solver(ib_dense_cube_fixed_offsets());
  solver.run(50);
  const Structure& structure = solver.structure();
  Size n = 0;
  for (const FiberSheet& sheet : structure) n += sheet.num_nodes();
  SpreadBins bins(structure, solver.distribution().owner_table(), 4, 4);
  for (int t = 0; t < 4; ++t) bins.bin(structure, solver.cubes(), t);
  Size sum = 0;
  for (int o = 0; o < 4; ++o) {
    const Size size = bins.bin_size(o);
    std::printf("owner %d bins %zu of %zu fiber nodes\n", o, size, n);
    RecordProperty("owner" + std::to_string(o) + "_nodes",
                   static_cast<int>(size));
    EXPECT_LT(size, n / 2) << "owner " << o;
    sum += size;
  }
  // Every node reaches at least one owner.
  EXPECT_GE(sum, n);
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
