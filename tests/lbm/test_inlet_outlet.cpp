#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cube_solver.hpp"
#include "core/openmp_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "lbm/boundary.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/observables.hpp"
#include "lbm/owned_box.hpp"

namespace lbmib {
namespace {

SimulationParams inlet_params() {
  SimulationParams p;
  p.nx = 24;
  p.ny = 12;
  p.nz = 12;
  p.boundary = BoundaryType::kInletOutlet;
  p.inlet_velocity = {0.04, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  return p;
}

TEST(InletOutlet, ParamsValidation) {
  SimulationParams p = inlet_params();
  EXPECT_NO_THROW(p.validate());
  p.inlet_velocity = {0.5, 0.0, 0.0};  // supersonic-ish
  EXPECT_THROW(p.validate(), Error);
  p = inlet_params();
  p.nx = 2;
  p.cube_size = 1;
  EXPECT_THROW(p.validate(), Error);
}

TEST(InletOutlet, MaskMarksChannelWalls) {
  FluidGrid grid(8, 6, 6);
  apply_boundary_mask(grid, BoundaryType::kInletOutlet);
  EXPECT_GT(count_solid_nodes(grid), 0u);
  EXPECT_FALSE(grid.solid(grid.index(0, 3, 3)));  // inlet face is fluid
}

TEST(InletOutlet, InletImposesVelocityAtLocalDensity) {
  FluidGrid grid(8, 6, 6);
  // Pretend streaming already filled df_new with a pressurized state.
  const Vec3 u_bulk{0.01, 0.0, 0.0};
  for (Size n = 0; n < grid.num_nodes(); ++n) {
    for (int dir = 0; dir < kQ; ++dir) {
      grid.df_new(dir, n) = d3q19::equilibrium(dir, 1.2, u_bulk);
    }
  }
  const Vec3 u_in{0.03, 0.0, 0.0};
  apply_inlet_outlet(grid, OwnedBox::whole(grid), u_in);
  // Inlet carries the imposed velocity at the *local* (x=1) density.
  const Size node = grid.index(0, 3, 3);
  for (int dir = 0; dir < kQ; ++dir) {
    EXPECT_NEAR(grid.df_new(dir, node),
                d3q19::equilibrium(dir, 1.2, u_in), 1e-13);
  }
}

TEST(InletOutlet, OutletAnchorsDensityAndExtrapolatesVelocity) {
  FluidGrid grid(8, 6, 6);
  const Vec3 u_up{0.02, 0.005, 0.0};
  for (Size n = 0; n < grid.num_nodes(); ++n) {
    for (int dir = 0; dir < kQ; ++dir) {
      grid.df_new(dir, n) = d3q19::equilibrium(dir, 1.3, u_up);
    }
  }
  apply_inlet_outlet(grid, OwnedBox::whole(grid), {0.03, 0.0, 0.0});
  const Size outlet = grid.index(7, 2, 3);
  // rho anchored at 1, velocity taken from upstream.
  for (int dir = 0; dir < kQ; ++dir) {
    EXPECT_NEAR(grid.df_new(dir, outlet),
                d3q19::equilibrium(dir, 1.0, u_up), 1e-13);
  }
}

TEST(InletOutlet, ApplyRespectsSlabRange) {
  FluidGrid grid(8, 6, 6);
  grid.df_new(0, grid.index(0, 3, 3)) = -1.0;
  // The slab [2, 6) excludes x = 0 and x = 7.
  apply_inlet_outlet(grid, OwnedBox::x_slab(grid, 2, 6), {0.03, 0.0, 0.0});
  EXPECT_EQ(grid.df_new(0, grid.index(0, 3, 3)), -1.0);
}

TEST(InletOutlet, GhostedBoundaryTileMatchesWholeGrid) {
  // A boundary rank's tile in its private grid with one ghost layer per
  // side: the pass must write the same df_new on the tile's columns as
  // the whole-grid pass, and nothing anywhere else.
  constexpr Index kNx = 8, kNy = 6, kNz = 6;
  FluidGrid whole(kNx, kNy, kNz);
  apply_boundary_mask(whole, BoundaryType::kInletOutlet);
  SplitMix64 rng(29);
  for (Size n = 0; n < whole.num_nodes(); ++n) {
    const Vec3 u{rng.next_double(0.0, 0.04), rng.next_double(-0.01, 0.01),
                 rng.next_double(-0.01, 0.01)};
    const Real rho = rng.next_double(0.95, 1.05);
    for (int dir = 0; dir < kQ; ++dir) {
      whole.df_new(dir, n) = d3q19::equilibrium(dir, rho, u);
    }
  }
  const Vec3 u_in{0.03, 0.005, 0.0};
  for (const OwnedBox& tile :
       {OwnedBox::ghosted_tile(0, 3, 2, kNy, kNx, kNy),     // inlet rank
        OwnedBox::ghosted_tile(5, kNx, 0, 4, kNx, kNy)}) {  // outlet rank
    SCOPED_TRACE("tile x [" + std::to_string(tile.x_lo) + ", " +
                 std::to_string(tile.x_hi) + ")");
    FluidGrid local(tile.x_hi - tile.x_lo + 2, tile.y_hi - tile.y_lo + 2,
                    kNz);
    for (Index lx = 0; lx < local.nx(); ++lx) {
      for (Index ly = 0; ly < local.ny(); ++ly) {
        for (Index z = 0; z < kNz; ++z) {
          const Size src =
              whole.periodic_index(lx - tile.dx, ly - tile.dy, z);
          const Size dst = local.index(lx, ly, z);
          local.set_solid(dst, whole.solid(src));
          for (int dir = 0; dir < kQ; ++dir) {
            local.df_new(dir, dst) = whole.df_new(dir, src);
          }
        }
      }
    }
    FluidGrid want(kNx, kNy, kNz);
    want.copy_from(whole);
    apply_inlet_outlet(want, OwnedBox::whole(want), u_in);
    apply_inlet_outlet(local, tile, u_in);
    for (Index lx = 0; lx < local.nx(); ++lx) {
      for (Index ly = 0; ly < local.ny(); ++ly) {
        const Index gx = lx - tile.dx, gy = ly - tile.dy;
        // Owned columns take the whole-grid result; ghosts keep their
        // input.
        const FluidGrid& expected =
            tile.owns_x(gx) && tile.owns_y(gy) ? want : whole;
        for (Index z = 0; z < kNz; ++z) {
          const Size got = local.index(lx, ly, z);
          const Size ref = expected.periodic_index(gx, gy, z);
          for (int dir = 0; dir < kQ; ++dir) {
            ASSERT_EQ(local.df_new(dir, got), expected.df_new(dir, ref))
                << "local (" << lx << ", " << ly << ", " << z << ") dir "
                << dir;
          }
        }
      }
    }
  }
}

TEST(InletOutlet, FlowDevelopsDownstream) {
  // Starting from rest, the imposed inlet velocity must propagate through
  // the whole channel.
  SequentialSolver solver(inlet_params());
  solver.run(200);
  const FluidGrid& grid = solver.fluid();
  // Centerline streamwise velocity positive everywhere, and mass flux in
  // the channel core near the inlet value's order of magnitude.
  for (Index x = 1; x < grid.nx() - 1; x += 4) {
    EXPECT_GT(grid.ux(grid.index(x, 6, 6)), 0.01) << "x=" << x;
  }
  EXPECT_LT(max_velocity_magnitude(grid), 0.3);  // stable
}

TEST(InletOutlet, SteadyStateMassFluxBalances) {
  // Once developed, the mass flux (rho u) through every cross-section is
  // equal: what the inlet pushes in, the pressure outlet lets out.
  SequentialSolver solver(inlet_params());
  solver.run(500);
  const FluidGrid& grid = solver.fluid();
  auto face_mass_flux = [&](Index x) {
    Real flux = 0.0;
    for (Index y = 0; y < grid.ny(); ++y) {
      for (Index z = 0; z < grid.nz(); ++z) {
        const Size n = grid.index(x, y, z);
        if (!grid.solid(n)) flux += grid.rho(n) * grid.ux(n);
      }
    }
    return flux;
  };
  const Real inflow = face_mass_flux(1);
  const Real midflow = face_mass_flux(grid.nx() / 2);
  const Real outflow = face_mass_flux(grid.nx() - 2);
  EXPECT_NEAR(midflow, inflow, 0.05 * inflow);
  EXPECT_NEAR(outflow, inflow, 0.05 * inflow);
}

TEST(InletOutlet, TotalMassStaysBounded) {
  // The velocity-inlet/pressure-outlet pair must not pressurize the
  // channel indefinitely.
  SequentialSolver solver(inlet_params());
  solver.run(300);
  const Real mass_early = solver.fluid().total_mass();
  solver.run(300);
  const Real mass_late = solver.fluid().total_mass();
  EXPECT_NEAR(mass_late, mass_early, 0.01 * mass_early);
}

TEST(InletOutlet, AllParallelSolversMatchSequential) {
  SimulationParams p = inlet_params();
  // Add a small immersed sheet to exercise the full coupling too.
  p.num_fibers = 5;
  p.nodes_per_fiber = 5;
  p.sheet_width = 4.0;
  p.sheet_height = 4.0;
  p.sheet_origin = {10.0, 4.0, 4.0};
  p.pin_mode = PinMode::kLeadingEdge;

  SequentialSolver seq(p);
  seq.run(10);

  p.num_threads = 4;
  OpenMPSolver omp(p);
  omp.run(10);
  EXPECT_EQ(compare_solvers(seq, omp).max_any(), 0.0) << "openmp";

  CubeSolver cube(p);
  cube.run(10);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11) << "cube";

  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(10);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-11) << "dataflow";
}

TEST(InletOutlet, CubeSizeOneMatchesSequential) {
  // Exercises the k = 1 outlet path (upstream column in the -x neighbour
  // cube).
  SimulationParams p = inlet_params();
  SequentialSolver seq(p);
  seq.run(6);
  p.cube_size = 1;
  p.num_threads = 2;
  CubeSolver cube(p);
  cube.run(6);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
}

TEST(InletOutlet, ObliqueInletVelocity) {
  SimulationParams p = inlet_params();
  p.inlet_velocity = {0.03, 0.01, 0.0};
  SequentialSolver seq(p);
  seq.run(6);
  p.num_threads = 3;
  CubeSolver cube(p);
  cube.run(6);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
}

}  // namespace
}  // namespace lbmib
