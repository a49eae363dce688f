// Clean-run leg of the race-detection suite: every solver's real
// synchronization (barriers, per-owner locks, dataflow task edges,
// halo-exchange channels, fork/join) must establish enough
// happens-before edges that a fresh detector stays silent over full
// FSI steps. Each test installs a ScopedRaceDetector so the verdict
// does not depend on what the process-wide default has already seen.
//
// In builds without -DLBMIB_RACE_DETECT=ON the hooks compile out and
// these degrade to cheap smoke runs of the six solvers.
#include <gtest/gtest.h>

#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/openmp_solver.hpp"
#include "core/sequential_solver.hpp"
#include "parallel/race_detector.hpp"

namespace lbmib {
namespace {

SimulationParams fsi_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  p.num_threads = 4;
  return p;
}

TEST(RaceClean, SequentialSolver) {
  ScopedRaceDetector sd;
  SequentialSolver solver(fsi_params());
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, OpenMPSolverFused) {
  ScopedRaceDetector sd;
  OpenMPSolver solver(fsi_params());
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, OpenMPSolverUnfused) {
  ScopedRaceDetector sd;
  SimulationParams p = fsi_params();
  p.fused_step = false;
  OpenMPSolver solver(p);
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, CubeSolver) {
  ScopedRaceDetector sd;
  CubeSolver solver(fsi_params());
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, CubeSolverUnfused) {
  ScopedRaceDetector sd;
  SimulationParams p = fsi_params();
  p.fused_step = false;
  CubeSolver solver(p);
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, DataflowSolver) {
  ScopedRaceDetector sd;
  CubeSolver solver(fsi_params(), CubeSolver::Schedule::kDataflow);
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, DataflowSolverOverlapped) {
  // Fiber-free runs take the cross-step overlapped task graph; its
  // pending-counter and queue-slot edges must be sufficient on their own
  // (no phase barrier separates the steps of one graph).
  ScopedRaceDetector sd;
  SimulationParams p = fsi_params();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  CubeSolver solver(p, CubeSolver::Schedule::kDataflow);
  EXPECT_NO_THROW(solver.run(6));
  EXPECT_EQ(solver.steps_completed(), 6);
}

TEST(RaceClean, DistributedSolver) {
  ScopedRaceDetector sd;
  Distributed2DSolver solver(fsi_params(), Distributed2DSolver::Mesh::kSlabs);
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, Distributed2DSolver) {
  ScopedRaceDetector sd;
  Distributed2DSolver solver(fsi_params());
  EXPECT_NO_THROW(solver.run(4));
}

TEST(RaceClean, ChannelBoundaryAcrossSolvers) {
  // Inlet/outlet adds the cross-cube boundary reads and the planar
  // boundary kernel's edge-plane writes; keep those silent too.
  SimulationParams p = fsi_params();
  p.boundary = BoundaryType::kChannel;
  {
    ScopedRaceDetector sd;
    OpenMPSolver solver(p);
    EXPECT_NO_THROW(solver.run(3));
  }
  {
    ScopedRaceDetector sd;
    CubeSolver solver(p);
    EXPECT_NO_THROW(solver.run(3));
  }
  {
    ScopedRaceDetector sd;
    CubeSolver solver(p, CubeSolver::Schedule::kDataflow);
    EXPECT_NO_THROW(solver.run(3));
  }
  {
    ScopedRaceDetector sd;
    Distributed2DSolver solver(p, Distributed2DSolver::Mesh::kSlabs);
    EXPECT_NO_THROW(solver.run(3));
  }
}

}  // namespace
}  // namespace lbmib
