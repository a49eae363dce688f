#include <gtest/gtest.h>

#include "core/openmp_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

SimulationParams small_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  return p;
}

/// The paper's correctness criterion: parallel results must match the
/// sequential implementation. Sweep thread counts.
class OpenMPEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OpenMPEquivalence, MatchesSequentialAfterManySteps) {
  SimulationParams p = small_params();
  SequentialSolver seq(p);
  p.num_threads = GetParam();
  OpenMPSolver omp(p);
  seq.run(10);
  omp.run(10);
  const StateDiff diff = compare_solvers(seq, omp);
  EXPECT_EQ(diff.max_any(), 0.0) << diff.to_string();
}

TEST_P(OpenMPEquivalence, ChannelFlowMatchesSequential) {
  SimulationParams p = small_params();
  p.boundary = BoundaryType::kChannel;
  p.sheet_origin = {6.0, 6.0, 6.0};
  SequentialSolver seq(p);
  p.num_threads = GetParam();
  OpenMPSolver omp(p);
  seq.run(8);
  omp.run(8);
  const StateDiff diff = compare_solvers(seq, omp);
  EXPECT_EQ(diff.max_any(), 0.0) << diff.to_string();
}

INSTANTIATE_TEST_SUITE_P(Threads, OpenMPEquivalence,
                         ::testing::Values(1, 2, 3, 4, 7, 8),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

/// (fused_step, simd_step): the reference pipeline and both fused legs.
class OpenMPDeterminism
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(OpenMPDeterminism, BitIdenticalToSequentialAtAnyThreadCount) {
  // Each thread spreads every fiber into its own x-slab only, so every
  // fluid node sums its fiber contributions in the sequential order: the
  // state must match exactly at any thread count, not to a tolerance.
  constexpr Index kDeterminismSteps = 6;
  SimulationParams p = small_params();
  p.fused_step = std::get<0>(GetParam());
  p.simd_step = std::get<1>(GetParam());
  // Off the lattice on every axis, so each node's support carries weight
  // on all 4 indices per axis and straddles slab boundaries.
  p.sheet_origin = {6.37, 5.61, 6.23};
  SequentialSolver seq(p);
  seq.run(kDeterminismSteps);
  OpenMPSolver one(p);
  one.run(kDeterminismSteps);
  EXPECT_EQ(compare_solvers(seq, one).max_any(), 0.0);
  for (int threads : {2, 3, 4, 5, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    SimulationParams pt = p;
    pt.num_threads = threads;
    OpenMPSolver omp(pt);
    omp.run(kDeterminismSteps);
    EXPECT_EQ(compare_solvers(one, omp).max_any(), 0.0);
    EXPECT_EQ(compare_solvers(seq, omp).max_any(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, OpenMPDeterminism,
    ::testing::Values(std::tuple{false, false}, std::tuple{true, false},
                      std::tuple{true, true}),
    [](const auto& info) {
      return std::string(!std::get<0>(info.param) ? "reference"
                         : std::get<1>(info.param) ? "fused_simd"
                                                   : "fused_scalar");
    });

TEST(OpenMPSolver, PerThreadProfilesHaveOneEntryPerThread) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  OpenMPSolver solver(p);
  solver.run(2);
  const auto profiles = solver.per_thread_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  for (const KernelProfiler& prof : profiles) {
    EXPECT_GT(prof.total_seconds(), 0.0);
  }
}

TEST(OpenMPSolver, AggregateProfilerAdvancesPerStep) {
  SimulationParams p = small_params();
  p.num_threads = 2;
  OpenMPSolver solver(p);
  solver.run(1);
  const double after_one = solver.profiler().total_seconds();
  solver.run(1);
  EXPECT_GT(solver.profiler().total_seconds(), after_one);
}

TEST(OpenMPSolver, MoreThreadsThanXSlabsStillCorrect) {
  SimulationParams p = small_params();  // nx = 16
  SequentialSolver seq(p);
  p.num_threads = 16;
  OpenMPSolver omp(p);
  seq.run(4);
  omp.run(4);
  EXPECT_EQ(compare_solvers(seq, omp).max_any(), 0.0);
}

TEST(OpenMPSolver, Name) {
  OpenMPSolver solver(small_params());
  EXPECT_EQ(solver.name(), "openmp");
}

}  // namespace
}  // namespace lbmib
