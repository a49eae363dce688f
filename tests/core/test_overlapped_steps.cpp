// Time-step overlap (fiber-free dataflow runs): the cross-step task graph
// must reproduce the barriered execution exactly. Each equivalence also
// runs the static cube schedule on the same input, which the graph must
// match bit for bit, also over runs longer than one graph.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>

#include "core/cube_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

SimulationParams fluid_only_params() {
  SimulationParams p = presets::tiny();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.body_force = {1e-5, 0.0, 0.0};
  return p;
}

/// `steps` of CubeSolver on `p`, to hold a dataflow run against.
StateDiff diff_vs_cube(const SimulationParams& p, Index steps,
                       const Solver& flow) {
  CubeSolver cube(p);
  cube.run(steps);
  return compare_solvers(cube, flow);
}

class OverlappedSteps : public ::testing::TestWithParam<int> {};

TEST_P(OverlappedSteps, MatchesSequentialPeriodic) {
  SimulationParams p = fluid_only_params();
  SequentialSolver seq(p);
  seq.run(12);
  p.num_threads = GetParam();
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(12);  // takes the overlapped path (no fibers, no observer)
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-12);
  EXPECT_EQ(diff_vs_cube(p, 12, flow).max_any(), 0.0);
  EXPECT_EQ(flow.steps_completed(), 12);
}

TEST_P(OverlappedSteps, MatchesSequentialChannel) {
  SimulationParams p = fluid_only_params();
  p.boundary = BoundaryType::kChannel;
  SequentialSolver seq(p);
  seq.run(10);
  p.num_threads = GetParam();
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(10);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-12);
  EXPECT_EQ(diff_vs_cube(p, 10, flow).max_any(), 0.0);
}

TEST_P(OverlappedSteps, MatchesSequentialInletOutlet) {
  SimulationParams p;
  p.nx = 24;
  p.ny = 12;
  p.nz = 12;
  p.boundary = BoundaryType::kInletOutlet;
  p.inlet_velocity = {0.03, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  SequentialSolver seq(p);
  seq.run(10);
  p.num_threads = GetParam();
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(10);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-12);
  EXPECT_EQ(diff_vs_cube(p, 10, flow).max_any(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Threads, OverlappedSteps,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

/// Bounded graphs: runs of 2 * kMaxGraphSteps + 3 steps advance in three
/// graphs (the last one odd, which ends with a buffer swap). The
/// parameter is (threads, boundary).
class BoundedTaskGraph
    : public ::testing::TestWithParam<std::tuple<int, BoundaryType>> {};

TEST_P(BoundedTaskGraph, LongRunsMatchCubeBitForBit) {
  SimulationParams p = fluid_only_params();
  p.boundary = std::get<1>(GetParam());
  if (p.boundary == BoundaryType::kInletOutlet) {
    p.nx = 24;
    p.ny = 12;
    p.nz = 12;
    p.body_force = {0.0, 0.0, 0.0};
    p.inlet_velocity = {0.03, 0.0, 0.0};
  }
  p.num_threads = std::get<0>(GetParam());
  constexpr Index kGraph = CubeSolver::kMaxGraphSteps;
  constexpr Index kSteps = 2 * kGraph + 3;
  CubeSolver cube(p);
  cube.run(kSteps);

  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(kSteps);
  EXPECT_EQ(compare_solvers(cube, flow).max_any(), 0.0);
  EXPECT_EQ(flow.steps_completed(), kSteps);
  const Size tasks = std::accumulate(flow.tasks_executed().begin(),
                                     flow.tasks_executed().end(), Size{0});
  EXPECT_EQ(tasks, 2 * flow.cubes().num_cubes() * static_cast<Size>(kSteps));

  // The same run split by a step(): graphs of kGraph, 2, 1 and kGraph.
  CubeSolver split(p, CubeSolver::Schedule::kDataflow);
  split.run(kGraph + 2);
  split.step();
  split.run(kSteps - kGraph - 3);
  EXPECT_EQ(compare_solvers(cube, split).max_any(), 0.0);
  EXPECT_EQ(split.steps_completed(), kSteps);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndInputs, BoundedTaskGraph,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(BoundaryType::kPeriodic,
                                         BoundaryType::kChannel,
                                         BoundaryType::kInletOutlet)),
    [](const auto& info) {
      const BoundaryType b = std::get<1>(info.param);
      return "t" + std::to_string(std::get<0>(info.param)) +
             (b == BoundaryType::kPeriodic  ? "_periodic"
              : b == BoundaryType::kChannel ? "_channel"
                                            : "_inlet_outlet");
    });

TEST(OverlappedStepsMisc, ExecutesEveryTaskOnce) {
  SimulationParams p = fluid_only_params();
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  const Index steps = 9;
  flow.run(steps);
  const Size total = std::accumulate(flow.tasks_executed().begin(),
                                     flow.tasks_executed().end(), Size{0});
  EXPECT_EQ(total, 2 * flow.cubes().num_cubes() * static_cast<Size>(steps));
}

TEST(OverlappedStepsMisc, MixingOverlappedAndStepwiseRuns) {
  // Overlapped run followed by single steps followed by another
  // overlapped run must match one continuous sequential run.
  SimulationParams p = fluid_only_params();
  SequentialSolver seq(p);
  seq.run(14);
  p.num_threads = 3;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(6);   // overlapped
  flow.run(1);   // stepwise (num_steps == 1)
  flow.step();   // stepwise
  flow.run(6);   // overlapped again
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-12);
  EXPECT_EQ(diff_vs_cube(p, 14, flow).max_any(), 0.0);
  EXPECT_EQ(flow.steps_completed(), 14);
}

TEST(OverlappedStepsMisc, ObserverForcesStepwisePath) {
  SimulationParams p = fluid_only_params();
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  std::vector<Index> seen;
  flow.run(
      6, [&](Solver&, Index s) { seen.push_back(s); }, 2);
  EXPECT_EQ(seen.size(), 3u);  // the per-step path honours observers
}

TEST(OverlappedStepsMisc, MrtOverlappedMatchesSequential) {
  SimulationParams p = fluid_only_params();
  p.collision = CollisionModel::kMRT;
  SequentialSolver seq(p);
  seq.run(8);
  p.num_threads = 4;
  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(8);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-12);
  EXPECT_EQ(diff_vs_cube(p, 8, flow).max_any(), 0.0);
}

}  // namespace
}  // namespace lbmib
