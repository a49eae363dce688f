// The ThreadSanitizer test path for the std::thread solvers.
//
// Every multi-threaded solver built on ThreadTeam (cube, dataflow, and
// the distributed solver on slabs and tiles) is driven here with several
// thread counts, both barrier flavours, and the observer path active,
// then cross-checked against the sequential reference. The suite is labeled
// `concurrency` in tests/CMakeLists.txt; `scripts/run_sanitized_tests.sh
// thread` builds with -DLBMIB_SANITIZE=thread and runs exactly this label,
// so any release/acquire mistake in SpinLock, the barriers, Channel, the
// communicator replica sync, or the dataflow dependency counters surfaces
// as a TSan report here. (The OpenMP solver is exercised by its own suite;
// it is excluded from the TSan label because GCC's libgomp is not
// TSan-instrumented and reports false positives — see tsan.supp.)
#include <gtest/gtest.h>

#include <atomic>

#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

SimulationParams stress_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  return p;
}

constexpr Index kSteps = 4;

/// Sequential reference, computed once per suite run.
const SequentialSolver& reference() {
  static SequentialSolver* seq = [] {
    auto* s = new SequentialSolver(stress_params());
    s->run(kSteps);
    return s;
  }();
  return *seq;
}

class CubeSolverConcurrency
    : public ::testing::TestWithParam<std::tuple<int, BarrierKind>> {};

TEST_P(CubeSolverConcurrency, LockedSpreadMatchesSequential) {
  SimulationParams p = stress_params();
  p.num_threads = std::get<0>(GetParam());
  CubeSolver cube(p, DistributionPolicy::kBlock, std::get<1>(GetParam()));
  cube.run(kSteps);
  EXPECT_LT(compare_solvers(reference(), cube).max_any(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Threads, CubeSolverConcurrency,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(BarrierKind::kSpin,
                                         BarrierKind::kBlocking)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == BarrierKind::kSpin ? "_spin"
                                                            : "_blocking");
    });

/// Exact determinism of the two owner-computes cube solvers, CubeSolver
/// and the dataflow solver; the parameter is (cube_size, simd_step).
template <SolverKind kKind>
class OwnerComputesDeterminism
    : public ::testing::TestWithParam<std::tuple<Index, bool>> {
 protected:
  void expect_bit_identical() const {
    // Owner-computes spreading sums every fluid node's fiber
    // contributions in the sequential solver's order, whichever thread
    // owns the node, so the state must match exactly, not to a
    // tolerance. Under TSan this also covers every thread reading every
    // fiber after the barrier that publishes the fiber forces.
    constexpr Index kDeterminismSteps = 6;
    SimulationParams p = stress_params();
    p.cube_size = std::get<0>(GetParam());
    p.simd_step = std::get<1>(GetParam());
    // Off the lattice on every axis, so each node's support carries
    // weight on all 4 indices per axis and straddles cube boundaries.
    p.sheet_origin = {6.37, 5.61, 6.23};
    SequentialSolver seq(p);
    seq.run(kDeterminismSteps);
    CubeSolver one(p);
    one.run(kDeterminismSteps);
    EXPECT_EQ(compare_solvers(seq, one).max_any(), 0.0);
    if constexpr (kKind == SolverKind::kDataflow) {
      // Against its own 1-thread run and against CubeSolver.
      CubeSolver flow_one(p, CubeSolver::Schedule::kDataflow);
      flow_one.run(kDeterminismSteps);
      EXPECT_EQ(compare_solvers(one, flow_one).max_any(), 0.0);
      for (int threads : {2, 3, 4, 5, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        SimulationParams pt = p;
        pt.num_threads = threads;
        CubeSolver flow(pt, CubeSolver::Schedule::kDataflow);
        flow.run(kDeterminismSteps);
        EXPECT_EQ(compare_solvers(flow_one, flow).max_any(), 0.0);
        EXPECT_EQ(compare_solvers(one, flow).max_any(), 0.0);
      }
    } else {
      for (int threads : {2, 3, 4, 5, 8}) {
        for (DistributionPolicy policy :
             {DistributionPolicy::kBlock, DistributionPolicy::kCyclic}) {
          SCOPED_TRACE(std::to_string(threads) + " threads, " +
                       (policy == DistributionPolicy::kBlock ? "block"
                                                             : "cyclic"));
          SimulationParams pt = p;
          pt.num_threads = threads;
          CubeSolver cube(pt, policy);
          cube.run(kDeterminismSteps);
          EXPECT_EQ(compare_solvers(one, cube).max_any(), 0.0);
          EXPECT_EQ(compare_solvers(seq, cube).max_any(), 0.0);
        }
      }
    }
  }
};

using CubeSolverDeterminism = OwnerComputesDeterminism<SolverKind::kCube>;
using DataflowDeterminism = OwnerComputesDeterminism<SolverKind::kDataflow>;

TEST_P(CubeSolverDeterminism, BitIdenticalAtAnyThreadCountAndPolicy) {
  expect_bit_identical();
}

TEST_P(DataflowDeterminism, BitIdenticalAtAnyThreadCount) {
  expect_bit_identical();
}

std::string cube_size_name(
    const ::testing::TestParamInfo<std::tuple<Index, bool>>& info) {
  return "k" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "_simd" : "_scalar");
}

INSTANTIATE_TEST_SUITE_P(CubeSizes, CubeSolverDeterminism,
                         ::testing::Combine(::testing::Values<Index>(1, 2,
                                                                     4, 8),
                                            ::testing::Bool()),
                         cube_size_name);
INSTANTIATE_TEST_SUITE_P(CubeSizes, DataflowDeterminism,
                         ::testing::Combine(::testing::Values<Index>(1, 2,
                                                                     4, 8),
                                            ::testing::Bool()),
                         cube_size_name);

TEST(CubeSolverConcurrencyObserver, ObserverBarrierPathIsRaceFree) {
  // The observer runs on tid 0 while the team waits at the extra barrier;
  // the callback reads solver state (steps_completed, structure).
  SimulationParams p = stress_params();
  p.num_threads = 4;
  CubeSolver cube(p);
  std::atomic<int> calls{0};
  cube.run(kSteps, [&](Solver& s, Index step) {
    calls.fetch_add(1);
    EXPECT_EQ(s.steps_completed(), step + 1);
  });
  EXPECT_EQ(calls.load(), static_cast<int>(kSteps));
}

TEST(CubeSolverConcurrencyObserver, ObserverSnapshotSettlesRaceFree) {
  // An observer that reads the fluid settles every cube's moments on tid
  // 0 while the team waits at the observer barrier, and the next step's
  // workers then rewrite the moments of the cubes their spread wrote.
  // The state matches a run whose observer reads nothing, bit for bit.
  for (const CubeSolver::Schedule schedule :
       {CubeSolver::Schedule::kStatic, CubeSolver::Schedule::kDataflow}) {
    SimulationParams p = stress_params();
    p.num_threads = 4;
    CubeSolver idle(p, schedule);
    CubeSolver reading(p, schedule);
    idle.run(kSteps, [](Solver&, Index) {});
    FluidGrid snap(p.nx, p.ny, p.nz);
    reading.run(kSteps,
                [&snap](Solver& s, Index) { s.snapshot_fluid(snap); });
    EXPECT_EQ(compare_solvers(idle, reading).max_any(), 0.0);
  }
}

class DataflowConcurrency : public ::testing::TestWithParam<int> {};

TEST_P(DataflowConcurrency, DynamicSchedulingMatchesSequential) {
  // Atomic work queue + dependency counters + self-scheduled fiber
  // kernels: the densest concentration of relaxed/acquire/release
  // traffic in the repo.
  SimulationParams p = stress_params();
  p.num_threads = GetParam();
  CubeSolver dataflow(p, CubeSolver::Schedule::kDataflow);
  dataflow.run(kSteps);
  EXPECT_LT(compare_solvers(reference(), dataflow).max_any(), 1e-11);
}

TEST_P(DataflowConcurrency, FiberFreeRunMatchesCube) {
  // A fiber-free multi-step run with no observer is one task graph over
  // the whole run: its counters re-arm across steps with no barrier
  // between them, so only the queue-slot and counter edges order it. An
  // odd step count ends the fused graph with one buffer swap.
  SimulationParams p = stress_params();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.num_threads = GetParam();
  CubeSolver cube(p);
  cube.run(kSteps + 1);
  CubeSolver dataflow(p, CubeSolver::Schedule::kDataflow);
  dataflow.run(kSteps + 1);
  EXPECT_EQ(compare_solvers(cube, dataflow).max_any(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Threads, DataflowConcurrency,
                         ::testing::Values(2, 3, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

/// Channel/Communicator path: halo packets + deterministic allreduce of
/// the fiber replicas. The suite fixes the rank mesh (kDistributed's
/// R x 1 slabs, kDistributed2D's tiles), the parameter the rank count.
template <Distributed2DSolver::Mesh kMesh>
class MeshConcurrency : public ::testing::TestWithParam<int> {
 protected:
  void expect_matches_sequential() const {
    SimulationParams p = stress_params();
    p.num_threads = GetParam();
    Distributed2DSolver dist(p, kMesh);
    dist.run(kSteps);
    EXPECT_LT(compare_solvers(reference(), dist).max_any(), 1e-11);
  }
};

using DistributedConcurrency =
    MeshConcurrency<Distributed2DSolver::Mesh::kSlabs>;
using Distributed2DConcurrency =
    MeshConcurrency<Distributed2DSolver::Mesh::kTiles>;

TEST_P(DistributedConcurrency, HaloExchangeMatchesSequential) {
  expect_matches_sequential();
}

TEST_P(Distributed2DConcurrency, TileHalosMatchSequential) {
  expect_matches_sequential();
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedConcurrency,
                         ::testing::Values(2, 3, 4),
                         [](const auto& info) {
                           return "r" + std::to_string(info.param);
                         });
INSTANTIATE_TEST_SUITE_P(Ranks, Distributed2DConcurrency,
                         ::testing::Values(2, 4, 6),
                         [](const auto& info) {
                           return "r" + std::to_string(info.param);
                         });

TEST(SolverConcurrency, RepeatedRunsReuseTeamsCleanly) {
  // run() launches a fresh team each call; state handed across the join
  // (profilers, steps_completed, fiber replicas) must be synchronized by
  // the join itself.
  SimulationParams p = stress_params();
  p.num_threads = 4;
  CubeSolver cube(p);
  for (int i = 0; i < 3; ++i) cube.run(1);
  SequentialSolver seq(stress_params());
  seq.run(3);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-12);
  EXPECT_EQ(cube.steps_completed(), 3);
}

}  // namespace
}  // namespace lbmib
