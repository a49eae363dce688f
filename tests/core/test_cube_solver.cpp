#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
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

/// Sweep threads x cube sizes x distribution policies against the
/// sequential reference — the paper's correctness criterion for the
/// cube-based implementation.
using CubeCase = std::tuple<int, Index, DistributionPolicy>;

class CubeEquivalence : public ::testing::TestWithParam<CubeCase> {};

TEST_P(CubeEquivalence, MatchesSequential) {
  const auto [threads, cube_size, policy] = GetParam();
  SimulationParams p = small_params();
  SequentialSolver seq(p);
  p.num_threads = threads;
  p.cube_size = cube_size;
  CubeSolver cube(p, policy);
  seq.run(8);
  cube.run(8);
  const StateDiff diff = compare_solvers(seq, cube);
  EXPECT_LT(diff.max_any(), 1e-11) << diff.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values<Index>(2, 4, 8),
                       ::testing::Values(DistributionPolicy::kBlock,
                                         DistributionPolicy::kCyclic)),
    [](const auto& info) {
      return std::string(std::get<2>(info.param) ==
                                 DistributionPolicy::kBlock
                             ? "block"
                             : "cyclic") +
             "_t" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CubeSolver, ChannelFlowMatchesSequential) {
  SimulationParams p = small_params();
  p.boundary = BoundaryType::kChannel;
  p.sheet_origin = {6.0, 6.0, 6.0};
  SequentialSolver seq(p);
  p.num_threads = 4;
  CubeSolver cube(p);
  seq.run(8);
  cube.run(8);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
}

/// The benchmark's ib_dense_cube input: two 104x104-node 30x30 sheets in a
/// 64x48x48 channel, cube 8, leading edges pinned, each sheet origin
/// shifted by an offset drawn from SplitMix64(seed) in x, y, z order.
SimulationParams ib_dense_cube_params(std::uint64_t seed) {
  SimulationParams p = presets::table1_sequential();
  p.nx = 64;
  p.ny = 48;
  p.nz = 48;
  p.cube_size = 8;
  p.num_fibers = 104;
  p.nodes_per_fiber = 104;
  p.sheet_width = 30.0;
  p.sheet_height = 30.0;
  p.sheet_origin = {12.0, 9.0, 9.0};
  p.pin_mode = PinMode::kLeadingEdge;
  p.extra_sheets.push_back({104, 104, 30.0, 30.0, {38.0, 9.0, 9.0}, 0.02,
                            0.002, 0.0, PinMode::kLeadingEdge});
  SplitMix64 rng(seed);
  auto offset = [&rng] {
    const double x = rng.next_double();
    const double y = rng.next_double();
    const double z = rng.next_double();
    return Vec3{x, y, z};
  };
  p.sheet_origin += offset();
  for (SheetSpec& s : p.extra_sheets) s.origin += offset();
  p.validate();
  return p;
}

class CubeSolverDenseSheets : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CubeSolverDenseSheets, MatchesSequentialExactly) {
  // Every cube collides through the same lane block as the planar sweep's
  // rows, so even with SIMD on and walls in every boundary cube the cube
  // solver must reproduce the sequential state bit for bit. These seeds
  // drifted by 1e-17 while only solid-free regions took the lane path.
  constexpr Index kSteps = 3;
  const SimulationParams p = ib_dense_cube_params(GetParam());
  ASSERT_TRUE(p.simd_step);
  SequentialSolver seq(p);
  seq.run(kSteps);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    SimulationParams pt = p;
    pt.num_threads = threads;
    CubeSolver cube(pt);
    cube.run(kSteps);
    const StateDiff diff = compare_solvers(seq, cube);
    EXPECT_EQ(diff.max_any(), 0.0) << diff.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeSolverDenseSheets,
                         ::testing::Values<std::uint64_t>(503, 504, 705),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(CubeSolver, SpinBarrierVariantMatchesSequential) {
  SimulationParams p = small_params();
  SequentialSolver seq(p);
  p.num_threads = 3;
  CubeSolver cube(p, DistributionPolicy::kBlock, BarrierKind::kSpin);
  seq.run(5);
  cube.run(5);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
}

TEST(CubeSolver, StepByStepMatchesSingleRun) {
  SimulationParams p = small_params();
  p.num_threads = 2;
  CubeSolver a(p), b(p);
  a.run(6);
  for (int i = 0; i < 6; ++i) b.step();
  EXPECT_LT(compare_solvers(a, b).max_any(), 1e-12);
  EXPECT_EQ(a.steps_completed(), b.steps_completed());
}

TEST(CubeSolver, ObserverRunsAtIntervalDuringTeamRun) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  CubeSolver solver(p);
  std::vector<Index> seen;
  solver.run(
      9, [&](Solver&, Index step) { seen.push_back(step); }, 3);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 2);
  EXPECT_EQ(seen[2], 8);
}

TEST(CubeSolver, ObserverCanSnapshotConsistentState) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  CubeSolver solver(p);
  SequentialSolver reference(small_params());
  Real max_diff = 0.0;
  solver.run(
      6,
      [&](Solver& s, Index) {
        reference.run(3);
        max_diff = std::max(max_diff,
                            compare_solvers(reference, s).max_any());
      },
      3);
  EXPECT_LT(max_diff, 1e-11);
}

TEST(CubeSolver, MoreThreadsThanCubes) {
  SimulationParams p = small_params();
  p.cube_size = 8;  // 16^3 grid -> 2x2x2 = 8 cubes
  SequentialSolver seq(p);
  p.num_threads = 12;  // some threads own nothing
  CubeSolver cube(p);
  seq.run(4);
  cube.run(4);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
}

TEST(CubeSolver, PerThreadProfilesExposeLoadSplit) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  CubeSolver solver(p);
  solver.run(3);
  const auto profiles = solver.per_thread_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  double total = 0.0;
  for (const auto& prof : profiles) total += prof.total_seconds();
  EXPECT_GT(total, 0.0);
}

TEST(CubeSolver, ExposesDistributionAndMesh) {
  SimulationParams p = small_params();
  p.num_threads = 8;
  CubeSolver solver(p);
  EXPECT_EQ(solver.thread_mesh().size(), 8);
  EXPECT_EQ(solver.distribution().cubes_x(), p.nx / p.cube_size);
  EXPECT_EQ(solver.name(), "cube");
}

TEST(CubeSolver, ZeroFiberSimulation) {
  SimulationParams p = small_params();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.num_threads = 4;
  CubeSolver solver(p);
  solver.run(5);
  EXPECT_EQ(solver.steps_completed(), 5);
}

TEST(CubeSolver, RunZeroStepsIsNoOp) {
  SimulationParams p = small_params();
  CubeSolver solver(p);
  solver.run(0);
  EXPECT_EQ(solver.steps_completed(), 0);
}

}  // namespace
}  // namespace lbmib
