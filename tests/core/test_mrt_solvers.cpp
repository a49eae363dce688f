// The MRT collision model must behave identically across all six solver
// kinds and flow through the configuration layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/error.hpp"

#include "common/config_file.hpp"
#include "core/cube_solver.hpp"
#include "core/dataflow_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/openmp_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

SimulationParams mrt_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  p.collision = CollisionModel::kMRT;
  return p;
}

TEST(MrtSolvers, AllParallelSolversMatchSequential) {
  SimulationParams p = mrt_params();
  SequentialSolver seq(p);
  seq.run(8);

  p.num_threads = 4;
  OpenMPSolver omp(p);
  omp.run(8);
  EXPECT_LT(compare_solvers(seq, omp).max_any(), 1e-11) << "openmp";

  CubeSolver cube(p);
  cube.run(8);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11) << "cube";

  DataflowCubeSolver flow(p);
  flow.run(8);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-11) << "dataflow";

  Distributed2DSolver dist(p, Distributed2DSolver::Mesh::kSlabs);
  dist.run(8);
  EXPECT_LT(compare_solvers(seq, dist).max_any(), 1e-11) << "distributed";

  Distributed2DSolver tiles(p, Distributed2DSolver::Mesh::kTiles);
  tiles.run(8);
  EXPECT_LT(compare_solvers(seq, tiles).max_any(), 1e-11) << "distributed2d";
}

TEST(MrtSolvers, MrtAndBgkDivergeOnTransients) {
  // Sanity check that the switch actually changes the dynamics: a
  // perturbed transient must differ between the models (they only share
  // the hydrodynamic limit).
  SimulationParams bgk = mrt_params();
  bgk.collision = CollisionModel::kBGK;
  SequentialSolver a(bgk);
  SequentialSolver b(mrt_params());
  // Perturb both identically away from equilibrium.
  a.fluid().df(5, 100) += 0.01;
  b.fluid().df(5, 100) += 0.01;
  a.run(3);
  b.run(3);
  EXPECT_GT(compare_solvers(a, b).max_df, 1e-8);
}

TEST(MrtSolvers, ConfigFileSelectsMrt) {
  std::istringstream in("collision = mrt\nboundary = channel\n");
  const SimulationParams p = parse_params(in);
  EXPECT_EQ(p.collision, CollisionModel::kMRT);
  std::istringstream in2("collision = bgk\n");
  EXPECT_EQ(parse_params(in2).collision, CollisionModel::kBGK);
  std::istringstream bad("collision = entropic\n");
  EXPECT_THROW(parse_params(bad), Error);
}

TEST(MrtSolvers, ConfigRoundTripsCollisionAndInlet) {
  const std::string path = ::testing::TempDir() + "lbmib_mrt_cfg.cfg";
  SimulationParams p = mrt_params();
  p.boundary = BoundaryType::kInletOutlet;
  p.inlet_velocity = {0.02, 0.0, 0.01};
  p.nx = 24;
  save_params_file(p, path);
  const SimulationParams q = load_params_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(q.collision, CollisionModel::kMRT);
  EXPECT_EQ(q.boundary, BoundaryType::kInletOutlet);
  EXPECT_EQ(q.inlet_velocity, p.inlet_velocity);
}

TEST(MrtSolvers, MrtWithChannelAndSheetStaysStable) {
  SimulationParams p = mrt_params();
  p.boundary = BoundaryType::kChannel;
  p.sheet_origin = {6.0, 6.0, 6.0};
  p.num_threads = 2;
  CubeSolver solver(p);
  solver.run(20);
  FluidGrid snap(p.nx, p.ny, p.nz);
  solver.snapshot_fluid(snap);
  for (Size n = 0; n < snap.num_nodes(); ++n) {
    EXPECT_TRUE(std::isfinite(snap.rho(n)));
  }
}

}  // namespace
}  // namespace lbmib
