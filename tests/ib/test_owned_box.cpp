// OwnedBox, the planar owner-computes seam (lbm/owned_box.hpp): boxes
// that partition the grid must together spread exactly what the
// whole-grid spread adds, bit for bit, whether they are x-slabs of one
// grid or ghosted tiles in private grids, and a box that holds a node's
// whole support must interpolate exactly the whole-grid value.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/owned_box.hpp"

namespace lbmib {
namespace {

constexpr Index kN = 12;
const Vec3 kBodyForce{1e-5, -2e-6, 3e-6};

/// A perturbed sheet in the plane x ~ 0.4 spanning y in [-1.3, 3.7]: its
/// supports wrap across x = 0 and y = 0. Node 3 then sits at NaN and
/// node 10 at +-1e300, the two positions influence_base clamps to 0.
FiberSheet wrapping_sheet() {
  FiberSheet sheet(6, 6, 5.0, 5.0, {0.4, -1.3, 2.2}, 0.05, 0.01);
  SplitMix64 rng(17);
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    sheet.position(i) += Vec3{rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3),
                              rng.next_double(-0.3, 0.3)};
  }
  compute_all_fiber_forces(sheet);
  sheet.position(3) = Vec3{std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::quiet_NaN()};
  sheet.position(10) = Vec3{1e300, -1e300, 1e300};
  return sheet;
}

/// The whole-grid spread every partition is held to.
FluidGrid whole_grid_spread(const FiberSheet& sheet) {
  FluidGrid grid(kN, kN, kN);
  grid.reset_forces(kBodyForce);
  spread_force(sheet, grid, 0, sheet.num_fibers());
  return grid;
}

/// Bit-for-bit equality of two reals (NaN payloads included).
void expect_same_bits(Real got, Real want, Index x, Index y, Index z) {
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "node (" << x << ", " << y << ", " << z << ")";
}

/// Force at global node (gx, gy, gz) of `got`, stored at local
/// (gx + dx, gy + dy, gz), against the same node of `want`.
void expect_same_force_bits(const FluidGrid& got, Index dx, Index dy,
                            const FluidGrid& want, Index gx, Index gy,
                            Index gz) {
  const Size g = got.index(gx + dx, gy + dy, gz);
  const Size w = want.index(gx, gy, gz);
  expect_same_bits(got.fx(g), want.fx(w), gx, gy, gz);
  expect_same_bits(got.fy(g), want.fy(w), gx, gy, gz);
  expect_same_bits(got.fz(g), want.fz(w), gx, gy, gz);
}

TEST(OwnedBox, DisjointXSlabsSumToTheWholeGridSpread) {
  const FiberSheet sheet = wrapping_sheet();
  const FluidGrid want = whole_grid_spread(sheet);
  // The input reaches what the partitions must cover: NaN, and the
  // columns the supports wrap onto across x = 0 and y = 0.
  ASSERT_TRUE(std::isnan(want.fx(want.index(1, 1, 1))));
  ASSERT_NE(want.fz(want.index(kN - 1, kN - 1, 4)), kBodyForce.z);
  const std::vector<std::vector<Index>> partitions = {
      {0, kN}, {0, 1, kN}, {0, 3, 7, kN}, {0, 2, 4, 6, 8, 10, kN}};
  for (const std::vector<Index>& cuts : partitions) {
    SCOPED_TRACE(std::to_string(cuts.size() - 1) + " slabs");
    FluidGrid got(kN, kN, kN);
    got.reset_forces(kBodyForce);
    for (Size s = 0; s + 1 < cuts.size(); ++s) {
      spread_force(sheet, got, OwnedBox::x_slab(got, cuts[s], cuts[s + 1]),
                   0, sheet.num_fibers());
    }
    for (Index x = 0; x < kN; ++x) {
      for (Index y = 0; y < kN; ++y) {
        for (Index z = 0; z < kN; ++z) {
          expect_same_force_bits(got, 0, 0, want, x, y, z);
        }
      }
    }
  }
}

TEST(OwnedBox, GhostedTilesSumToTheWholeGridSpread) {
  // A 3 x 2 tiling, each tile in its own grid with one ghost layer per
  // side: the real nodes match the whole-grid spread and the ghost layer
  // keeps the body force untouched.
  const FiberSheet sheet = wrapping_sheet();
  const FluidGrid want = whole_grid_spread(sheet);
  const Index x_cuts[] = {0, 3, 7, kN};
  const Index y_cuts[] = {0, 5, kN};
  for (int tx = 0; tx < 3; ++tx) {
    for (int ty = 0; ty < 2; ++ty) {
      const OwnedBox tile =
          OwnedBox::ghosted_tile(x_cuts[tx], x_cuts[tx + 1], y_cuts[ty],
                                 y_cuts[ty + 1], kN, kN);
      SCOPED_TRACE("tile (" + std::to_string(tx) + ", " +
                   std::to_string(ty) + ")");
      FluidGrid got(tile.x_hi - tile.x_lo + 2, tile.y_hi - tile.y_lo + 2,
                    kN);
      got.reset_forces(kBodyForce);
      spread_force(sheet, got, tile, 0, sheet.num_fibers());
      for (Index lx = 0; lx < got.nx(); ++lx) {
        for (Index ly = 0; ly < got.ny(); ++ly) {
          const Index gx = lx - tile.dx, gy = ly - tile.dy;
          const bool real = tile.owns_x(gx) && tile.owns_y(gy);
          for (Index z = 0; z < kN; ++z) {
            if (real) {
              expect_same_force_bits(got, tile.dx, tile.dy, want, gx, gy, z);
            } else {
              ASSERT_EQ(got.force(got.index(lx, ly, z)), kBodyForce)
                  << "ghost (" << lx << ", " << ly << ", " << z << ")";
            }
          }
        }
      }
    }
  }
}

TEST(OwnedBox, BoxHoldingTheSupportInterpolatesTheWholeGridValue) {
  FluidGrid grid(kN, kN, kN);
  SplitMix64 rng(23);
  for (Size n = 0; n < grid.num_nodes(); ++n) {
    grid.set_velocity(n, {rng.next_double(-0.05, 0.05),
                          rng.next_double(-0.05, 0.05),
                          rng.next_double(-0.05, 0.05)});
  }
  for (int trial = 0; trial < 32; ++trial) {
    const Vec3 pos{rng.next_double(2.0, 9.0), rng.next_double(2.0, 9.0),
                   rng.next_double(-1.0, 13.0)};
    const Vec3 want = interpolate_velocity(grid, pos);
    const Index bx = influence_base(pos.x), by = influence_base(pos.y);
    SCOPED_TRACE("trial " + std::to_string(trial));

    // The support's own 4 x 4 columns, in place.
    const OwnedBox support{bx, bx + 4, by, by + 4, kN, kN};
    const Vec3 in_place = interpolate_velocity(grid, support, pos);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in_place.x),
              std::bit_cast<std::uint64_t>(want.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in_place.y),
              std::bit_cast<std::uint64_t>(want.y));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in_place.z),
              std::bit_cast<std::uint64_t>(want.z));

    // The same columns as a ghosted tile in a private grid.
    const OwnedBox tile =
        OwnedBox::ghosted_tile(bx, bx + 4, by, by + 4, kN, kN);
    FluidGrid local(6, 6, kN);
    for (Index lx = 0; lx < 6; ++lx) {
      for (Index ly = 0; ly < 6; ++ly) {
        for (Index z = 0; z < kN; ++z) {
          local.set_velocity(
              local.index(lx, ly, z),
              grid.velocity(grid.periodic_index(lx - tile.dx, ly - tile.dy,
                                                z)));
        }
      }
    }
    const Vec3 ghosted = interpolate_velocity(local, tile, pos);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ghosted.x),
              std::bit_cast<std::uint64_t>(want.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ghosted.y),
              std::bit_cast<std::uint64_t>(want.y));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ghosted.z),
              std::bit_cast<std::uint64_t>(want.z));

    // A box the support misses contributes exactly nothing.
    const OwnedBox elsewhere{bx + 4, kN, 0, kN, kN, kN};
    EXPECT_EQ(interpolate_velocity(grid, elsewhere, pos), Vec3{});
  }
}

}  // namespace
}  // namespace lbmib
