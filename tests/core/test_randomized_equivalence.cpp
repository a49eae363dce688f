// Randomized cross-solver property test: for deterministic pseudo-random
// configurations (grid shapes, cube sizes, boundary types, collision
// models, stiffnesses, thread counts), every parallel solver must
// reproduce the sequential solver. This is the paper's correctness
// methodology ("all the numerical results have been verified ... by
// comparing to the sequential implementation") applied as a sweep.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/openmp_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

SimulationParams random_params(SplitMix64& rng) {
  SimulationParams p;
  // Grid dims: multiples of 4 in [12, 24] so cube sizes 2 and 4 divide.
  auto dim = [&] { return 12 + 4 * static_cast<Index>(rng.next_below(4)); };
  p.nx = dim();
  p.ny = dim();
  p.nz = dim();
  p.tau = 0.6 + 0.4 * rng.next_double();
  p.collision = rng.next_below(2) == 0 ? CollisionModel::kBGK
                                       : CollisionModel::kMRT;
  const int boundary = static_cast<int>(rng.next_below(3));
  p.boundary = boundary == 0 ? BoundaryType::kPeriodic
                             : (boundary == 1 ? BoundaryType::kChannel
                                              : BoundaryType::kCavity);
  if (p.boundary == BoundaryType::kCavity) {
    p.lid_velocity = {0.02 + 0.03 * rng.next_double(), 0.0, 0.0};
  } else {
    p.body_force = {1e-5 * rng.next_double(), 0.0, 0.0};
    p.initial_velocity = {0.02 * rng.next_double(), 0.0, 0.0};
  }
  p.num_fibers = 3 + static_cast<Index>(rng.next_below(5));
  p.nodes_per_fiber = 3 + static_cast<Index>(rng.next_below(5));
  p.sheet_width = 2.0 + 2.0 * rng.next_double();
  p.sheet_height = 2.0 + 2.0 * rng.next_double();
  p.sheet_origin = {4.0 + rng.next_double() * (p.nx - 9),
                    4.0 + rng.next_double() * (p.ny - 9),
                    4.0 + rng.next_double() * (p.nz - 9)};
  p.stretching_coeff = 0.05 * rng.next_double();
  p.bending_coeff = 0.005 * rng.next_double();
  p.pin_mode = rng.next_below(2) == 0 ? PinMode::kNone
                                      : PinMode::kLeadingEdge;
  if (p.pin_mode != PinMode::kNone && rng.next_below(2) == 0) {
    p.tether_coeff = 0.2 * rng.next_double();
  }
  p.cube_size = rng.next_below(2) == 0 ? 2 : 4;
  p.num_threads = 2 + static_cast<int>(rng.next_below(4));
  return p;
}

class RandomizedEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedEquivalence, AllSolversMatchSequential) {
  SplitMix64 rng(GetParam());
  SimulationParams p = random_params(rng);
  SCOPED_TRACE(p.summary());
  ASSERT_NO_THROW(p.validate());

  SimulationParams p_seq = p;
  p_seq.num_threads = 1;
  SequentialSolver seq(p_seq);
  seq.run(5);

  OpenMPSolver omp(p);
  omp.run(5);
  EXPECT_EQ(compare_solvers(seq, omp).max_any(), 0.0) << "openmp";

  CubeSolver cube(p);
  cube.run(5);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11) << "cube";

  CubeSolver flow(p, CubeSolver::Schedule::kDataflow);
  flow.run(5);
  EXPECT_LT(compare_solvers(seq, flow).max_any(), 1e-11) << "dataflow";
  EXPECT_EQ(compare_solvers(cube, flow).max_any(), 0.0) << "dataflow vs cube";

  Distributed2DSolver dist(p, Distributed2DSolver::Mesh::kSlabs);
  dist.run(5);
  EXPECT_LT(compare_solvers(seq, dist).max_any(), 1e-11) << "distributed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lbmib
