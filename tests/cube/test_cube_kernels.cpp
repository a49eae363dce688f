#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "lbm/boundary.hpp"
#include "lbm/collision.hpp"
#include "ib/interpolation.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/fused.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/mrt.hpp"
#include "lbm/streaming.hpp"

namespace lbmib {
namespace {

/// The central property: every cube kernel must produce *exactly* the same
/// state as its planar counterpart, for any cube size.
class CubeKernelEquivalence : public ::testing::TestWithParam<Index> {
 protected:
  static constexpr Index kN = 8;

  void SetUp() override {
    planar_ = std::make_unique<FluidGrid>(kN, kN, kN);
    SplitMix64 rng(99);
    for (Size n = 0; n < planar_->num_nodes(); ++n) {
      for (int d = 0; d < kQ; ++d) {
        planar_->df(d, n) =
            d3q19::w[static_cast<Size>(d)] * (1.0 + 0.2 * rng.next_double());
      }
      planar_->fx(n) = rng.next_double(-1e-3, 1e-3);
      planar_->fy(n) = rng.next_double(-1e-3, 1e-3);
      planar_->fz(n) = rng.next_double(-1e-3, 1e-3);
    }
    cubes_ = std::make_unique<CubeGrid>(kN, kN, kN, GetParam());
    cubes_->from_planar(*planar_);
  }

  void expect_equal_state() {
    FluidGrid back(kN, kN, kN);
    cubes_->to_planar(back);
    for (Size n = 0; n < planar_->num_nodes(); ++n) {
      for (int d = 0; d < kQ; ++d) {
        EXPECT_EQ(back.df(d, n), planar_->df(d, n)) << "df node " << n;
        EXPECT_EQ(back.df_new(d, n), planar_->df_new(d, n))
            << "df_new node " << n;
      }
      EXPECT_EQ(back.rho(n), planar_->rho(n));
      EXPECT_EQ(back.velocity(n), planar_->velocity(n));
    }
  }

  std::unique_ptr<FluidGrid> planar_;
  std::unique_ptr<CubeGrid> cubes_;
};

TEST_P(CubeKernelEquivalence, Collision) {
  collide_range(*planar_, 0.8, 0, planar_->num_nodes());
  for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
    cube_collide(*cubes_, 0.8, cube);
  }
  expect_equal_state();
}

TEST_P(CubeKernelEquivalence, Streaming) {
  stream_x_slab(*planar_, 0, kN);
  for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
    cube_stream(*cubes_, cube);
  }
  expect_equal_state();
}

TEST_P(CubeKernelEquivalence, UpdateVelocity) {
  stream_x_slab(*planar_, 0, kN);
  for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
    cube_stream(*cubes_, cube);
  }
  update_velocity_range(*planar_, 0, planar_->num_nodes());
  for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
    cube_update_velocity(*cubes_, cube);
  }
  expect_equal_state();
}

TEST_P(CubeKernelEquivalence, CopyDistribution) {
  stream_x_slab(*planar_, 0, kN);
  copy_distributions_range(*planar_, 0, planar_->num_nodes());
  // Stream ALL cubes before copying any: copying cube c before its
  // neighbours have pushed into c's df_new would capture stale values
  // (the cube solver separates these phases with a barrier).
  for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
    cube_stream(*cubes_, cube);
  }
  for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
    cube_copy_distributions(*cubes_, cube);
  }
  expect_equal_state();
}

TEST_P(CubeKernelEquivalence, FullKernelSequence) {
  // Kernels 5, 6, 7, 9 chained for two pseudo-steps.
  for (int step = 0; step < 2; ++step) {
    collide_range(*planar_, 0.8, 0, planar_->num_nodes());
    stream_x_slab(*planar_, 0, kN);
    update_velocity_range(*planar_, 0, planar_->num_nodes());
    copy_distributions_range(*planar_, 0, planar_->num_nodes());

    for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
      cube_collide(*cubes_, 0.8, cube);
    }
    for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
      cube_stream(*cubes_, cube);
    }
    for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
      cube_update_velocity(*cubes_, cube);
    }
    for (Size cube = 0; cube < cubes_->num_cubes(); ++cube) {
      cube_copy_distributions(*cubes_, cube);
    }
  }
  expect_equal_state();
}

INSTANTIATE_TEST_SUITE_P(CubeSizes, CubeKernelEquivalence,
                         ::testing::Values<Index>(1, 2, 4, 8),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(CubeKernelsBoundary, StreamingBounceBackMatchesPlanar) {
  SimulationParams p;
  p.nx = 8;
  p.ny = 8;
  p.nz = 8;
  p.cube_size = 4;
  p.boundary = BoundaryType::kChannel;
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  FluidGrid planar(p);
  SplitMix64 rng(5);
  for (Size n = 0; n < planar.num_nodes(); ++n) {
    for (int d = 0; d < kQ; ++d) {
      planar.df(d, n) = planar.solid(n) ? 0.0 : rng.next_double(0.01, 1.0);
    }
  }
  CubeGrid cubes(p);
  cubes.from_planar(planar);

  stream_x_slab(planar, 0, 8);
  for (Size cube = 0; cube < cubes.num_cubes(); ++cube) {
    cube_stream(cubes, cube);
  }
  FluidGrid back(8, 8, 8);
  cubes.to_planar(back);
  for (Size n = 0; n < planar.num_nodes(); ++n) {
    for (int d = 0; d < kQ; ++d) {
      EXPECT_EQ(back.df_new(d, n), planar.df_new(d, n)) << "node " << n;
    }
  }
}

/// The grids of the cube-sweep suite: no walls, walls plus an embedded
/// obstacle, and a closed box whose lid moves.
enum class SweepGrid { kPeriodic, kChannelSphere, kCavityLid };

std::string sweep_grid_name(SweepGrid g) {
  switch (g) {
    case SweepGrid::kPeriodic:
      return "periodic";
    case SweepGrid::kChannelSphere:
      return "channel_sphere";
    case SweepGrid::kCavityLid:
      return "cavity_lid";
  }
  return "unknown";
}

/// (cube_size, grid)
using SweepCase = std::tuple<Index, SweepGrid>;

/// Kernels 5+6 and 7 of the cube layout against the planar ones, called
/// directly on the same state: cube_collide_stream over every cube against
/// fused_collide_stream_x_slab, then cube_update_velocity against
/// update_velocity_range.
class CubeFusedSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static constexpr Index kN = 16;
  static constexpr Real kTau = 0.8;

  static SimulationParams params() {
    SimulationParams p;
    p.nx = kN;
    p.ny = kN;
    p.nz = kN;
    p.num_fibers = 0;
    p.nodes_per_fiber = 0;
    p.cube_size = std::get<0>(GetParam());
    switch (std::get<1>(GetParam())) {
      case SweepGrid::kPeriodic:
        p.boundary = BoundaryType::kPeriodic;
        break;
      case SweepGrid::kChannelSphere:
        // Centre and radius off the cube grid lines at every cube size, so
        // the obstacle cuts cubes, rows and runs at uneven places.
        p.boundary = BoundaryType::kChannel;
        p.obstacles.push_back(SphereObstacle{{6.3, 9.7, 7.4}, 3.2});
        break;
      case SweepGrid::kCavityLid:
        p.boundary = BoundaryType::kCavity;
        p.lid_velocity = {0.05, -0.02, 0.0};
        break;
    }
    return p;
  }

  /// Fresh planar and cube grids holding one random state. Solid nodes get
  /// random df too (no push may read them), and the cube's df_new starts as
  /// NaN so a slot the cube sweep fails to write never compares equal.
  void make_grids(std::uint64_t seed) {
    const SimulationParams p = params();
    planar_ = std::make_unique<FluidGrid>(p);
    SplitMix64 rng(seed);
    for (Size n = 0; n < planar_->num_nodes(); ++n) {
      for (int d = 0; d < kQ; ++d) {
        planar_->df(d, n) =
            d3q19::w[static_cast<Size>(d)] * (1.0 + 0.2 * rng.next_double());
        planar_->df_new(d, n) = -1.0;
      }
      planar_->rho(n) = rng.next_double(0.5, 1.5);
      planar_->fx(n) = rng.next_double(-1e-3, 1e-3);
      planar_->fy(n) = rng.next_double(-1e-3, 1e-3);
      planar_->fz(n) = rng.next_double(-1e-3, 1e-3);
    }
    cubes_ = std::make_unique<CubeGrid>(p);
    cubes_->from_planar(*planar_);
    for (Size c = 0; c < cubes_->num_cubes(); ++c) {
      for (Size l = 0; l < cubes_->nodes_per_cube(); ++l) {
        for (int d = 0; d < kQ; ++d) {
          cubes_->df_new(c, d, l) = std::numeric_limits<Real>::quiet_NaN();
        }
      }
    }
  }

  /// Mark extra nodes solid on both grids after construction: a 3x2x2
  /// block straddling cube faces, and (where there are walls) one wall
  /// node cleared back to fluid.
  void mutate_solids() {
    auto set = [&](Index x, Index y, Index z, bool s) {
      planar_->set_solid(planar_->index(x, y, z), s);
      const CubeGrid::NodeRef r = cubes_->locate(x, y, z);
      cubes_->set_solid(r.cube, r.local, s);
    };
    for (Index x = 7; x < 10; ++x) {
      for (Index y = 3; y < 5; ++y) {
        for (Index z = 11; z < 13; ++z) set(x, y, z, true);
      }
    }
    if (std::get<1>(GetParam()) != SweepGrid::kPeriodic) set(5, 0, 9, false);
  }

  /// The cube sweep (`simd` leg) and the planar scalar sweep, the
  /// reference both legs are held to.
  void sweep(bool simd, const MrtOperator* mrt = nullptr) {
    fused_collide_stream_x_slab(*planar_, kTau, mrt, 0, kN, /*simd=*/false);
    for (Size c = 0; c < cubes_->num_cubes(); ++c) {
      cube_collide_stream(*cubes_, kTau, c, simd, mrt);
    }
  }

  /// Compare every df_new slot, exactly when `tol` is 0.
  void expect_df_new(Real tol) const {
    FluidGrid back(kN, kN, kN);
    cubes_->to_planar(back);
    for (Size n = 0; n < planar_->num_nodes(); ++n) {
      for (int d = 0; d < kQ; ++d) {
        if (tol == 0.0) {
          ASSERT_EQ(back.df_new(d, n), planar_->df_new(d, n))
              << "node " << n << " dir " << d;
        } else {
          ASSERT_NEAR(back.df_new(d, n), planar_->df_new(d, n), tol)
              << "node " << n << " dir " << d;
        }
      }
    }
  }

  void expect_update_matches() const {
    std::vector<Real> rho_before(planar_->num_nodes());
    for (Size n = 0; n < planar_->num_nodes(); ++n) {
      rho_before[n] = planar_->rho(n);
    }
    update_velocity_range(*planar_, 0, planar_->num_nodes());
    for (Size c = 0; c < cubes_->num_cubes(); ++c) {
      cube_update_velocity(*cubes_, c);
    }
    FluidGrid back(kN, kN, kN);
    cubes_->to_planar(back);
    Size solids = 0;
    for (Size n = 0; n < planar_->num_nodes(); ++n) {
      ASSERT_EQ(back.rho(n), planar_->rho(n)) << "node " << n;
      ASSERT_EQ(back.velocity(n), planar_->velocity(n)) << "node " << n;
      if (planar_->solid(n)) {
        ++solids;
        ASSERT_EQ(back.velocity(n), Vec3{}) << "solid node " << n;
        ASSERT_EQ(back.rho(n), rho_before[n]) << "solid node " << n;
      }
    }
    if (std::get<1>(GetParam()) != SweepGrid::kPeriodic) {
      EXPECT_GT(solids, 0u);
    }
  }

  std::unique_ptr<FluidGrid> planar_;
  std::unique_ptr<CubeGrid> cubes_;
};

TEST_P(CubeFusedSweep, ScalarLegMatchesPlanarScalarSweepExactly) {
  const MrtOperator mrt(MrtRelaxation::from_tau(kTau));
  for (const MrtOperator* op : {static_cast<const MrtOperator*>(nullptr),
                                &mrt}) {
    SCOPED_TRACE(op ? "mrt" : "bgk");
    make_grids(41);
    sweep(/*simd=*/false, op);
    expect_df_new(0.0);
  }
}

TEST_P(CubeFusedSweep, SimdLegWithinToleranceOfPlanarScalarSweep) {
  make_grids(42);
  sweep(/*simd=*/true);
  expect_df_new(1e-14);
}

TEST_P(CubeFusedSweep, UpdateVelocityMatchesPlanarIncludingSolids) {
  make_grids(43);
  sweep(/*simd=*/false);
  expect_update_matches();
}

TEST_P(CubeFusedSweep, SolidsSetAfterConstructionMatchPlanar) {
  make_grids(44);
  mutate_solids();
  sweep(/*simd=*/false);
  expect_df_new(0.0);
  expect_update_matches();
}

TEST_P(CubeFusedSweep, StreamMatchesPlanarStream) {
  // The reference pipeline's push: df_new starts at zero, as after
  // construction, since stream_x_slab leaves a solid node's slots alone
  // while cube_stream zeroes them.
  make_grids(45);
  for (Size n = 0; n < planar_->num_nodes(); ++n) {
    for (int d = 0; d < kQ; ++d) planar_->df_new(d, n) = 0.0;
  }
  cubes_->from_planar(*planar_);
  stream_x_slab(*planar_, 0, kN);
  for (Size c = 0; c < cubes_->num_cubes(); ++c) cube_stream(*cubes_, c);
  expect_df_new(0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, CubeFusedSweep,
    ::testing::Combine(::testing::Values<Index>(1, 2, 4, 8),
                       ::testing::Values(SweepGrid::kPeriodic,
                                         SweepGrid::kChannelSphere,
                                         SweepGrid::kCavityLid)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_" +
             sweep_grid_name(std::get<1>(info.param));
    });

TEST(CubeKernelsInterp, MatchesPlanarInterpolation) {
  FluidGrid planar(8, 8, 8);
  SplitMix64 rng(6);
  for (Size n = 0; n < planar.num_nodes(); ++n) {
    planar.set_velocity(n, {rng.next_double(-0.1, 0.1),
                            rng.next_double(-0.1, 0.1),
                            rng.next_double(-0.1, 0.1)});
  }
  CubeGrid cubes(8, 8, 8, 4);
  cubes.from_planar(planar);
  for (const Vec3& pos :
       {Vec3{4.3, 3.9, 5.1}, Vec3{0.2, 7.8, 1.0}, Vec3{6.66, 2.22, 4.44}}) {
    const Vec3 a = interpolate_velocity(planar, pos);
    const Vec3 b = cube_interpolate_velocity(cubes, pos);
    EXPECT_NEAR(a.x, b.x, 1e-15);
    EXPECT_NEAR(a.y, b.y, 1e-15);
    EXPECT_NEAR(a.z, b.z, 1e-15);
  }
}

}  // namespace
}  // namespace lbmib
