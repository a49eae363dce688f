// Lid-driven cavity: the classic closed-box validation of moving-wall
// bounce-back. The z = nz-1 lid drags fluid along +x, setting up a
// recirculating vortex.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "lbm/observables.hpp"

namespace lbmib {
namespace {

SimulationParams cavity_params() {
  SimulationParams p;
  p.nx = 16;
  p.ny = 16;
  p.nz = 16;
  p.tau = 0.8;
  p.boundary = BoundaryType::kCavity;
  p.lid_velocity = {0.05, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  return p;
}

TEST(Cavity, Validation) {
  SimulationParams p = cavity_params();
  EXPECT_NO_THROW(p.validate());
  p.lid_velocity = {0.0, 0.0, 0.1};  // normal component forbidden
  EXPECT_THROW(p.validate(), Error);
  p = cavity_params();
  p.lid_velocity = {0.4, 0.0, 0.0};
  EXPECT_THROW(p.validate(), Error);
}

TEST(Cavity, AllSixFacesAreWalls) {
  FluidGrid grid(cavity_params());
  EXPECT_TRUE(grid.solid(grid.index(0, 8, 8)));
  EXPECT_TRUE(grid.solid(grid.index(15, 8, 8)));
  EXPECT_TRUE(grid.solid(grid.index(8, 0, 8)));
  EXPECT_TRUE(grid.solid(grid.index(8, 15, 8)));
  EXPECT_TRUE(grid.solid(grid.index(8, 8, 0)));
  EXPECT_TRUE(grid.solid(grid.index(8, 8, 15)));
  EXPECT_FALSE(grid.solid(grid.index(8, 8, 8)));
  EXPECT_TRUE(grid.has_lid());
}

TEST(Cavity, LidDragsAdjacentFluid) {
  SequentialSolver solver(cavity_params());
  solver.run(100);
  const FluidGrid& grid = solver.fluid();
  // Fluid just under the lid moves with the lid's direction...
  EXPECT_GT(grid.ux(grid.index(8, 8, 14)), 0.005);
  // ...and the return flow near the bottom runs the other way.
  EXPECT_LT(grid.ux(grid.index(8, 8, 2)), 0.0);
}

TEST(Cavity, VortexForms) {
  SequentialSolver solver(cavity_params());
  solver.run(200);
  const FluidGrid& grid = solver.fluid();
  // The primary vortex rotates about the y axis: omega_y < 0 for a +x
  // lid at the top (u_x increases with z in the core).
  const Vec3 w = vorticity(grid, 8, 8, 8);
  EXPECT_GT(std::abs(w.y), 1e-5);
  EXPECT_GT(enstrophy(grid), 0.0);
}

TEST(Cavity, MassConserved) {
  SequentialSolver solver(cavity_params());
  const Real mass0 = solver.fluid().total_mass();
  solver.run(150);
  EXPECT_NEAR(solver.fluid().total_mass(), mass0, 1e-8 * mass0);
}

TEST(Cavity, ZeroLidVelocityStaysQuiescent) {
  SimulationParams p = cavity_params();
  p.lid_velocity = {};
  SequentialSolver solver(p);
  solver.run(30);
  EXPECT_NEAR(max_velocity_magnitude(solver.fluid()), 0.0, 1e-14);
}

TEST(Cavity, StaysStableLongRun) {
  SequentialSolver solver(cavity_params());
  solver.run(500);
  const Real m = max_velocity_magnitude(solver.fluid());
  EXPECT_TRUE(std::isfinite(m));
  EXPECT_LT(m, 0.1);  // bounded by the lid speed scale
}

TEST(Cavity, CubeSolverMatchesSequential) {
  SimulationParams p = cavity_params();
  SequentialSolver seq(p);
  seq.run(20);
  for (Index k : {Index{2}, Index{4}, Index{8}}) {
    SimulationParams q = p;
    q.cube_size = k;
    q.num_threads = 4;
    CubeSolver cube(q);
    cube.run(20);
    EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-12) << "k=" << k;
  }
}

TEST(Cavity, DistributedSolverMatchesSequential) {
  SimulationParams p = cavity_params();
  SequentialSolver seq(p);
  seq.run(20);
  p.num_threads = 4;
  Distributed2DSolver dist(p, Distributed2DSolver::Mesh::kSlabs);
  dist.run(20);
  EXPECT_LT(compare_solvers(seq, dist).max_any(), 1e-12);
}

TEST(Cavity, ObliqueLidVelocity) {
  SimulationParams p = cavity_params();
  p.lid_velocity = {0.03, 0.02, 0.0};
  SequentialSolver seq(p);
  seq.run(15);
  p.num_threads = 2;
  CubeSolver cube(p);
  cube.run(15);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-12);
  // The y component of the lid drags fluid in y too.
  EXPECT_GT(seq.fluid().uy(seq.fluid().index(8, 8, 14)), 0.001);
}

}  // namespace
}  // namespace lbmib
