// Rigid spherical obstacles: flow past a bluff body through bounce-back.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/config_file.hpp"
#include "common/error.hpp"
#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "lbm/boundary.hpp"

namespace lbmib {
namespace {

SimulationParams sphere_params() {
  SimulationParams p;
  p.nx = 32;
  p.ny = 16;
  p.nz = 16;
  p.boundary = BoundaryType::kChannel;
  p.body_force = {2e-5, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.obstacles.push_back(SphereObstacle{{10.0, 8.0, 8.0}, 3.0});
  return p;
}

TEST(Obstacle, Validation) {
  SimulationParams p = sphere_params();
  EXPECT_NO_THROW(p.validate());
  p.obstacles[0].radius = 0.0;
  EXPECT_THROW(p.validate(), Error);
  p = sphere_params();
  p.obstacles[0].center = {100.0, 8.0, 8.0};
  EXPECT_THROW(p.validate(), Error);
}

TEST(Obstacle, MaskMarksTheSphere) {
  const SimulationParams p = sphere_params();
  EXPECT_TRUE(is_boundary_solid(p, 10, 8, 8));   // center
  EXPECT_TRUE(is_boundary_solid(p, 12, 8, 8));   // inside radius
  EXPECT_FALSE(is_boundary_solid(p, 14, 8, 8));  // just outside
  EXPECT_FALSE(is_boundary_solid(p, 20, 8, 8));  // downstream fluid
  FluidGrid grid(p);
  EXPECT_TRUE(grid.solid(grid.index(10, 8, 8)));
  EXPECT_FALSE(grid.solid(grid.index(20, 8, 8)));
}

TEST(Obstacle, PlanarAndCubeMasksAgree) {
  const SimulationParams p = sphere_params();
  FluidGrid planar(p);
  CubeGrid cubes(p);
  for (Index x = 0; x < p.nx; ++x) {
    for (Index y = 0; y < p.ny; ++y) {
      for (Index z = 0; z < p.nz; ++z) {
        const auto r = cubes.locate(x, y, z);
        EXPECT_EQ(cubes.solid(r.cube, r.local),
                  planar.solid(planar.index(x, y, z)));
      }
    }
  }
}

TEST(Obstacle, WakeVelocityDeficitForms) {
  SequentialSolver solver(sphere_params());
  solver.run(300);
  const FluidGrid& grid = solver.fluid();
  // Behind the sphere the streamwise velocity is depressed relative to
  // the unobstructed lane at the same x.
  const Real wake = grid.ux(grid.index(15, 8, 8));
  const Real side = grid.ux(grid.index(15, 3, 8));
  EXPECT_LT(wake, side);
  // And the far-downstream centerline recovers toward positive flow.
  EXPECT_GT(grid.ux(grid.index(28, 8, 8)), 0.0);
}

TEST(Obstacle, NoFlowInsideTheSphere) {
  SequentialSolver solver(sphere_params());
  solver.run(100);
  const FluidGrid& grid = solver.fluid();
  EXPECT_EQ(grid.velocity(grid.index(10, 8, 8)), Vec3{});
  EXPECT_EQ(grid.velocity(grid.index(11, 8, 8)), Vec3{});
}

TEST(Obstacle, AllSolversAgree) {
  SimulationParams p = sphere_params();
  SequentialSolver seq(p);
  seq.run(10);
  p.num_threads = 4;
  CubeSolver cube(p);
  cube.run(10);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-12) << "cube";
  Distributed2DSolver dist(p, Distributed2DSolver::Mesh::kSlabs);
  dist.run(10);
  EXPECT_LT(compare_solvers(seq, dist).max_any(), 1e-12) << "slabs";
  Distributed2DSolver dist2(p);
  dist2.run(10);
  EXPECT_LT(compare_solvers(seq, dist2).max_any(), 1e-12) << "tiles";
}

TEST(Obstacle, SphereSpanningRankBoundary) {
  // The obstacle sits exactly on the x-split of a 2-rank decomposition:
  // ghost masks must reproduce it on both sides.
  SimulationParams p = sphere_params();
  p.obstacles[0].center = {16.0, 8.0, 8.0};  // on the 2-rank split
  SequentialSolver seq(p);
  seq.run(10);
  p.num_threads = 2;
  Distributed2DSolver dist(p, Distributed2DSolver::Mesh::kSlabs);
  dist.run(10);
  EXPECT_LT(compare_solvers(seq, dist).max_any(), 1e-12);
}

TEST(Obstacle, ConfigFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "lbmib_obstacle.cfg";
  SimulationParams p = sphere_params();
  p.obstacles.push_back(SphereObstacle{{24.0, 4.0, 12.0}, 1.5});
  save_params_file(p, path);
  const SimulationParams q = load_params_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(q.obstacles.size(), 2u);
  EXPECT_EQ(q.obstacles[0].center, p.obstacles[0].center);
  EXPECT_DOUBLE_EQ(q.obstacles[1].radius, 1.5);
}

TEST(Obstacle, ConfigSectionParses) {
  std::istringstream in(
      "nx = 32\nny = 16\nnz = 16\nboundary = channel\n"
      "num_fibers = 0\nnodes_per_fiber = 0\n"
      "[obstacle]\ncenter = 10 8 8\nradius = 3\n");
  const SimulationParams p = parse_params(in);
  ASSERT_EQ(p.obstacles.size(), 1u);
  EXPECT_DOUBLE_EQ(p.obstacles[0].radius, 3.0);
  std::istringstream bad("[obstacle]\nbogus = 1\n");
  EXPECT_THROW(parse_params(bad), Error);
}

}  // namespace
}  // namespace lbmib
