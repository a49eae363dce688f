#include "core/resilient_runner.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "core/fault_injection.hpp"
#include "core/verification.hpp"
#include "io/checkpoint.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {
namespace {

SimulationParams tiny_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  return p;
}

ResilienceConfig test_config(const std::string& name) {
  ResilienceConfig cfg;
  cfg.checkpoint_interval = 5;
  cfg.health_interval = 5;
  cfg.max_retries = 2;
  cfg.checkpoint_base = ::testing::TempDir() + name;
  return cfg;
}

// The tentpole round-trip: a NaN injected at step 12 is caught by the
// next scan, the run rolls back to the step-10 checkpoint, retries with
// degraded parameters, and completes all 30 steps.
TEST(ResilientRunnerTest, RecoversFromInjectedNan) {
  const SimulationParams p = tiny_params();
  ResilientRunner runner(SolverKind::kSequential, p,
                         test_config("resilient_nan.ckpt"));
  runner.on_step(1, fault::nan_at_step(12, 200));

  const ResilienceReport report = runner.run(30);

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.steps_completed, 30);
  EXPECT_EQ(report.retries_used, 1);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].detected_step, 15);
  EXPECT_EQ(report.events[0].resumed_step, 10);
  EXPECT_NEAR(report.events[0].new_tau, p.tau + 0.05, 1e-12);
  EXPECT_NEAR(runner.current_params().stretching_coeff,
              p.stretching_coeff * 0.5, 1e-12);

  // The final state must be clean.
  HealthMonitor monitor;
  EXPECT_EQ(monitor.scan(runner.solver()).status, HealthStatus::kHealthy);

  // Checkpoints are cleaned up after a successful run by default.
  EXPECT_FALSE(runner.rotation().has_checkpoint());
}

TEST(ResilientRunnerTest, FaultFreeRunMatchesPlainRun) {
  const SimulationParams p = tiny_params();
  ResilientRunner runner(SolverKind::kSequential, p,
                         test_config("resilient_clean.ckpt"));
  const ResilienceReport report = runner.run(20);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.retries_used, 0);

  auto plain = make_solver(SolverKind::kSequential, p);
  plain->run(20);
  EXPECT_EQ(compare_solvers(*plain, runner.solver()).max_any(), 0.0);
}

TEST(ResilientRunnerTest, PersistentFaultExhaustsRetriesAndThrows) {
  const SimulationParams p = tiny_params();
  ResilienceConfig cfg = test_config("resilient_persistent.ckpt");
  ResilientRunner runner(SolverKind::kSequential, p, cfg);
  // A fault that re-fires after every rollback: poison some node on every
  // observed step. No retry budget can outrun this.
  runner.on_step(1, [](Solver& solver, Index) {
    fault::inject_nan(solver, 50);
  });
  EXPECT_THROW(runner.run(30), Error);
  CheckpointRotation(cfg.checkpoint_base).remove_files();
}

TEST(ResilientRunnerTest, RecoversOnParallelSolver) {
  SimulationParams p = tiny_params();
  p.num_threads = 2;
  ResilientRunner runner(SolverKind::kCube, p,
                         test_config("resilient_cube.ckpt"));
  runner.on_step(1, fault::nan_at_step(8, 321));
  const ResilienceReport report = runner.run(20);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.retries_used, 1);
  HealthMonitor monitor;
  EXPECT_EQ(monitor.scan(runner.solver()).status, HealthStatus::kHealthy);
}

// restore_state must round-trip through every solver kind: running 5
// steps, snapshotting, restoring into a FRESH solver, and running 5 more
// must match a straight 10-step run of the same kind.
class RestoreStateTest : public ::testing::TestWithParam<SolverKind> {};

TEST_P(RestoreStateTest, SnapshotRestoreResumesEquivalently) {
  SimulationParams p = tiny_params();
  p.num_threads = 2;

  auto straight = make_solver(GetParam(), p);
  straight->run(10);

  auto first = make_solver(GetParam(), p);
  first->run(5);
  FluidGrid snapshot(p.nx, p.ny, p.nz);
  first->snapshot_fluid(snapshot);

  auto resumed = make_solver(GetParam(), p);
  resumed->restore_state(snapshot, first->structure(),
                         first->steps_completed());
  EXPECT_EQ(resumed->steps_completed(), 5);
  resumed->run(5);

  // Every kind spreads owner-computes, each node summing its fiber
  // contributions in one fixed order, and its force field between steps
  // is the step's total force, so a resumed run replays bit-exactly.
  EXPECT_EQ(compare_solvers(*straight, *resumed).max_any(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RestoreStateTest,
    ::testing::Values(SolverKind::kSequential, SolverKind::kOpenMP,
                      SolverKind::kCube, SolverKind::kDataflow,
                      SolverKind::kDistributed, SolverKind::kDistributed2D),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return std::string(solver_kind_name(info.param));
    });

/// Kinds that step bit-identically on the same input: the planar
/// shared-memory pair, the cube-layout pair, and the two rank meshes
/// (both 2 x 1 at the two ranks CrossKindRestore runs).
int exact_class(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSequential:
    case SolverKind::kOpenMP:
      return 0;
    case SolverKind::kCube:
    case SolverKind::kDataflow:
      return 1;
    default:
      return 2;
  }
}

// A state restored across kinds must resume as the target kind's own run
// does. `from` runs 20 steps; a fresh `to` restores its snapshot and
// structure and runs 5 more, against 25 straight steps of `to`. The
// snapshot's force field is the 20th step's total force in every kind,
// and the next step's kernel 4 replaces it, so nothing is added twice.
class CrossKindRestore
    : public ::testing::TestWithParam<std::tuple<SolverKind, SolverKind>> {};

TEST_P(CrossKindRestore, ResumesAsTheTargetKind) {
  const auto [from, to] = GetParam();
  SimulationParams p = presets::tiny();
  p.num_threads = 2;
  p.boundary = BoundaryType::kChannel;
  p.body_force = {1e-5, 0.0, 0.0};
  p.initial_velocity = {0.05, 0.01, 0.0};
  p.pin_mode = PinMode::kLeadingEdge;

  auto source = make_solver(from, p);
  source->run(20);
  FluidGrid snapshot(p.nx, p.ny, p.nz);
  source->snapshot_fluid(snapshot);
  auto resumed = make_solver(to, p);
  resumed->restore_state(snapshot, source->structure(),
                         source->steps_completed());
  resumed->run(5);

  auto straight = make_solver(to, p);
  straight->run(25);
  const StateDiff d = compare_solvers(*straight, *resumed);
  SCOPED_TRACE(d.to_string());
  // Kinds of one exact class step bit-identically; across classes the
  // vectorized sweeps differ by rounding only.
  if (exact_class(from) == exact_class(to)) {
    EXPECT_EQ(d.max_any(), 0.0);
  } else {
    EXPECT_LE(d.max_any(), 1e-12);
  }
}

// A fiber-free dataflow run has no kernel 4, so it steps with the force
// field it holds. Every kind starts from the body force, so a snapshot
// taken before the first step restores into it as into its own kind.
TEST(CrossKindRestoreFiberFree, FreshSequentialSnapshotKeepsTheBodyForce) {
  SimulationParams p = presets::tiny();
  p.num_threads = 2;
  p.boundary = BoundaryType::kChannel;
  p.body_force = {1e-5, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  auto source = make_solver(SolverKind::kSequential, p);
  FluidGrid snapshot(p.nx, p.ny, p.nz);
  source->snapshot_fluid(snapshot);
  auto resumed = make_solver(SolverKind::kDataflow, p);
  resumed->restore_state(snapshot, source->structure(), 0);
  resumed->run(5);

  auto straight = make_solver(SolverKind::kDataflow, p);
  straight->run(5);
  EXPECT_EQ(compare_solvers(*straight, *resumed).max_any(), 0.0);
}

constexpr SolverKind kKinds[] = {
    SolverKind::kSequential,  SolverKind::kOpenMP,
    SolverKind::kCube,        SolverKind::kDataflow,
    SolverKind::kDistributed, SolverKind::kDistributed2D};

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CrossKindRestore,
    ::testing::Combine(::testing::ValuesIn(kKinds),
                       ::testing::ValuesIn(kKinds)),
    [](const ::testing::TestParamInfo<CrossKindRestore::ParamType>& info) {
      return std::string(solver_kind_name(std::get<0>(info.param))) +
             "_to_" +
             std::string(solver_kind_name(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace lbmib
