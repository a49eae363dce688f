#include <gtest/gtest.h>

#include <numeric>

#include "core/cube_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

SimulationParams small_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  return p;
}

/// The dynamically scheduled solver must reproduce the sequential result
/// for any thread count and cube size, to the tight tolerance of the cube
/// layout's SIMD kernels (against CubeSolver it is exact:
/// DataflowDeterminism in test_solver_concurrency.cpp).
class DataflowEquivalence
    : public ::testing::TestWithParam<std::tuple<int, Index>> {};

TEST_P(DataflowEquivalence, MatchesSequential) {
  const int threads = std::get<0>(GetParam());
  const Index cube_size = std::get<1>(GetParam());
  SimulationParams p = small_params();
  SequentialSolver seq(p);
  p.num_threads = threads;
  p.cube_size = cube_size;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  seq.run(8);
  flow.run(8);
  const StateDiff diff = compare_solvers(seq, flow);
  EXPECT_LT(diff.max_any(), 1e-11) << diff.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DataflowEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values<Index>(2, 4, 8)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DataflowSolver, ChannelFlowMatchesSequential) {
  SimulationParams p = small_params();
  p.boundary = BoundaryType::kChannel;
  p.sheet_origin = {6.0, 6.0, 6.0};
  SequentialSolver seq(p);
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  seq.run(8);
  flow.run(8);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-11);
}

TEST(DataflowSolver, MultiSheetMatchesSequential) {
  SimulationParams p = small_params();
  SheetSpec second;
  second.num_fibers = 4;
  second.nodes_per_fiber = 5;
  second.width = 2.0;
  second.height = 3.0;
  second.origin = {10.0, 5.0, 5.0};
  second.stretching_coeff = 0.02;
  second.bending_coeff = 0.002;
  p.extra_sheets.push_back(second);
  SequentialSolver seq(p);
  p.num_threads = 3;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  seq.run(6);
  flow.run(6);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-11);
}

TEST(DataflowSolver, EveryTaskExecutedExactlyOncePerStep) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  const Index steps = 5;
  flow.run(steps);
  const Size total = std::accumulate(flow.tasks_executed().begin(),
                                     flow.tasks_executed().end(), Size{0});
  EXPECT_EQ(total, 2 * flow.cubes().num_cubes() * static_cast<Size>(steps));
}

TEST(DataflowSolver, WorkIsSharedAcrossThreads) {
  // With self-scheduling every thread should execute some tasks (on an
  // oversubscribed host a thread can in principle starve, so only require
  // that at least two threads participated across a longer run).
  SimulationParams p = small_params();
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(10);
  int participating = 0;
  for (Size t : flow.tasks_executed()) {
    if (t > 0) ++participating;
  }
  EXPECT_GE(participating, 2);
}

TEST(DataflowSolver, StepByStepMatchesSingleRun) {
  SimulationParams p = small_params();
  p.num_threads = 2;
  CubeSolver a(p, CubeSolver::Schedule::kDataflow);
  CubeSolver b(p, CubeSolver::Schedule::kDataflow);
  a.run(6);
  for (int i = 0; i < 6; ++i) b.step();
  EXPECT_LT(compare_solvers(a, b).max_any(), 1e-11);
}

TEST(DataflowSolver, ObserverRunsAtInterval) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  std::vector<Index> seen;
  flow.run(
      6, [&](Solver&, Index step) { seen.push_back(step); }, 2);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[2], 5);
}

TEST(DataflowSolver, ZeroFiberSimulation) {
  SimulationParams p = small_params();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(5);
  EXPECT_EQ(flow.steps_completed(), 5);
}

TEST(DataflowSolver, AvailableThroughFactory) {
  auto solver = make_solver(SolverKind::kDataflow, small_params());
  EXPECT_EQ(solver->name(), "dataflow");
  solver->run(2);
  EXPECT_EQ(solver->steps_completed(), 2);
}

TEST(DataflowSolver, SingleCubeGridStillWorks) {
  // Degenerate dataflow: one cube whose region is itself; the pipeline
  // must not deadlock.
  SimulationParams p = small_params();
  p.cube_size = 16;  // 16^3 grid -> a single cube
  p.num_threads = 4;
  SequentialSolver seq(small_params());
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  seq.run(4);
  flow.run(4);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-11);
}

}  // namespace
}  // namespace lbmib
