// Liveness-layer integration tests: injected hangs (chaos stalls, lost
// halo messages) must be detected by the watchdog, named in the hang
// report, and survived by the ResilientRunner; clean runs under an armed
// watchdog must never trip. The OpenMP variants live in
// tests/core/test_liveness_openmp.cpp (this binary is in the TSan
// `concurrency` label, which excludes libgomp).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "core/cube_solver.hpp"
#include "core/fault_injection.hpp"
#include "core/resilient_runner.hpp"
#include "core/simulation.hpp"
#include "core/verification.hpp"
#include "core/watchdog.hpp"
#include "parallel/cancel.hpp"

namespace lbmib {
namespace {

SimulationParams liveness_params(SolverKind kind) {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  p.num_threads = kind == SolverKind::kSequential ? 1 : 2;
  return p;
}

/// A sync point each solver kind is guaranteed to pass through every
/// step (the label the chaos stall arms against and the hang report
/// must name).
const char* stall_point(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSequential:
      return "sequential:step";
    case SolverKind::kOpenMP:
      return "openmp:step";
    case SolverKind::kCube:
      return "cube:barrier:collide";
    case SolverKind::kDataflow:
      return "dataflow:task-loop";
    case SolverKind::kDistributed:
    case SolverKind::kDistributed2D:
      return "distributed2d:halo";  // one solver, one label set
  }
  return "";
}

/// Disarms chaos and clears retired heartbeat slots even when an
/// assertion fails mid-test.
class LivenessTest : public ::testing::TestWithParam<SolverKind> {
 protected:
  void SetUp() override { chaos::reset(); }
  void TearDown() override {
    chaos::reset();
    ProgressBoard::global().clear_retired();
  }
};

// --- watchdog detection ----------------------------------------------

TEST_P(LivenessTest, WatchdogDetectsInjectedPermanentStall) {
  const SolverKind kind = GetParam();
  Simulation sim(kind, liveness_params(kind));
  sim.enable_watchdog(500);

  chaos::StallSpec stall;
  stall.point_substr = stall_point(kind);
  stall.duration_ms = -1;  // permanent stick until cancelled
  chaos::arm_stall(stall);

  try {
    sim.run(50);
    FAIL() << "expected the watchdog to cancel the stalled run";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cause(), CancelCause::kWatchdog);
  }
  EXPECT_EQ(chaos::stalls_fired(), 1);
  ASSERT_NE(sim.watchdog(), nullptr);
  EXPECT_EQ(sim.watchdog()->trips(), 1);
  // The hang report names the stuck thread's sync point.
  const std::string report = sim.watchdog()->last_report();
  EXPECT_NE(report.find("hang report"), std::string::npos);
  EXPECT_NE(report.find(stall_point(kind)), std::string::npos);
  EXPECT_NE(report.find("STUCK"), std::string::npos);
}

// --- recovery --------------------------------------------------------

TEST_P(LivenessTest, ResilientRunnerRecoversFromStall) {
  const SolverKind kind = GetParam();
  const SimulationParams p = liveness_params(kind);
  ResilienceConfig cfg;
  cfg.checkpoint_interval = 5;
  cfg.health_interval = 5;
  cfg.max_retries = 2;
  cfg.watchdog_deadline_ms = 500;
  cfg.checkpoint_base = ::testing::TempDir() + "liveness_stall_" +
                        std::string(solver_kind_name(kind)) + ".ckpt";
  ResilientRunner runner(kind, p, cfg);

  chaos::StallSpec stall;
  stall.point_substr = stall_point(kind);
  stall.duration_ms = -1;
  chaos::arm_stall(stall);

  const ResilienceReport report = runner.run(30);

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.steps_completed, 30);
  EXPECT_EQ(report.retries_used, 1);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_TRUE(report.events[0].hang);
  // Hang recovery degrades the schedule, not the physics.
  EXPECT_EQ(runner.current_params().tau, p.tau);
  if (p.num_threads > 1) {
    EXPECT_EQ(report.events[0].new_num_threads, p.num_threads / 2);
  }
  HealthMonitor monitor;
  EXPECT_EQ(monitor.scan(runner.solver()).status, HealthStatus::kHealthy);
}

TEST(LivenessChannelFaults, LostHaloMessageIsDetectedAndRecovered) {
  // Drop a halo message: its receiver blocks forever in Channel::recv,
  // the watchdog trips, and the runner resumes and completes. One rank,
  // so the send order is deterministic (several ranks interleave their
  // sends on the process-wide counter) and all 8 halo messages of a
  // step travel the self channel in that order. Message 7, the last
  // corner column, has nothing queued behind it, so its recv finds an
  // empty channel; a dropped message with another behind it on the same
  // channel would surface as a tag mismatch instead.
  SimulationParams p = liveness_params(SolverKind::kDistributed);
  p.num_threads = 1;
  ResilienceConfig cfg;
  cfg.checkpoint_interval = 5;
  cfg.health_interval = 5;
  cfg.max_retries = 2;
  cfg.watchdog_deadline_ms = 500;
  cfg.checkpoint_base = ::testing::TempDir() + "liveness_drop.ckpt";
  ResilientRunner runner(SolverKind::kDistributed, p, cfg);

  chaos::reset();
  chaos::arm_message_drop(7);

  const ResilienceReport report = runner.run(30);

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.steps_completed, 30);
  EXPECT_EQ(report.retries_used, 1);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_TRUE(report.events[0].hang);
  EXPECT_EQ(chaos::messages_dropped(), 1u);
  chaos::reset();
  ProgressBoard::global().clear_retired();
}

TEST(LivenessChannelFaults, DuplicatedHaloMessageRecoversViaErrorPath) {
  // A duplicated halo packet leaves a stale message in the channel; the
  // next tag-checked recv throws, the team unwinds, and the runner
  // recovers on the divergence path (no watchdog needed).
  const SimulationParams p = liveness_params(SolverKind::kDistributed);
  ResilienceConfig cfg;
  cfg.checkpoint_interval = 5;
  cfg.health_interval = 5;
  cfg.max_retries = 2;
  cfg.checkpoint_base = ::testing::TempDir() + "liveness_dup.ckpt";
  ResilientRunner runner(SolverKind::kDistributed, p, cfg);

  chaos::reset();
  chaos::arm_message_duplicate(0);

  const ResilienceReport report = runner.run(30);

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.steps_completed, 30);
  EXPECT_EQ(report.retries_used, 1);
  EXPECT_EQ(chaos::messages_duplicated(), 1u);
  chaos::reset();
  ProgressBoard::global().clear_retired();
}

TEST(LivenessCheckpointFaults, FailingCheckpointWritesDoNotKillTheRun) {
  const SimulationParams p = liveness_params(SolverKind::kSequential);
  ResilienceConfig cfg;
  cfg.checkpoint_interval = 5;
  cfg.health_interval = 5;
  cfg.keep_checkpoints = true;
  cfg.checkpoint_base = ::testing::TempDir() + "liveness_ckptfail.ckpt";
  ResilientRunner runner(SolverKind::kSequential, p, cfg);

  chaos::reset();
  chaos::arm_checkpoint_write_failures(2);

  const ResilienceReport report = runner.run(30);

  // The first two interval saves fail (logged, tolerated); later saves
  // land, so the run completes with zero retries and a usable rotation.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.retries_used, 0);
  EXPECT_EQ(chaos::checkpoint_failures_remaining(), 0);
  EXPECT_TRUE(runner.rotation().has_checkpoint());
  runner.rotation().remove_files();
  chaos::reset();
}

// --- false-trip immunity ---------------------------------------------

TEST_P(LivenessTest, CleanRunNeverTripsTheWatchdog) {
  const SolverKind kind = GetParam();
  Simulation sim(kind, liveness_params(kind));
  sim.enable_watchdog(10000);
  sim.run(60);
  EXPECT_EQ(sim.steps_completed(), 60);
  ASSERT_NE(sim.watchdog(), nullptr);
  EXPECT_EQ(sim.watchdog()->trips(), 0);
  EXPECT_FALSE(sim.cancel_token().cancelled());
}

TEST(LivenessUserCancel, SimulationRunStopsAtNextCancelPoint) {
  SimulationParams p = liveness_params(SolverKind::kCube);
  Simulation sim(SolverKind::kCube, p);
  sim.on_step(1, [&sim](Solver&, Index step) {
    if (step == 4) {
      sim.cancel_token().cancel("enough", CancelCause::kUser);
    }
  });
  try {
    sim.run(1000);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cause(), CancelCause::kUser);
  }
  EXPECT_LT(sim.steps_completed(), 1000);
  ProgressBoard::global().clear_retired();
}

// --- every labelled sync point is a chaos point ------------------------

struct ChaosPoint {
  const char* label;
  SolverKind kind;
  bool fiber_free;  ///< the overlapped dataflow graph runs only fiber-free
};

void PrintTo(const ChaosPoint& point, std::ostream* os) { *os << point.label; }

class ChaosPointTest : public ::testing::TestWithParam<ChaosPoint> {
 protected:
  void SetUp() override { chaos::reset(); }
  void TearDown() override {
    chaos::reset();
    ProgressBoard::global().clear_retired();
  }
};

// The labels that used to beat without a chaos hook, and the barriers of
// the dataflow schedule: a timed stall armed at each must fire exactly
// once and the run must still complete. The dataflow schedule shares the
// cube schedule's labels outside its fluid section.
TEST_P(ChaosPointTest, TimedStallFiresOnceAndTheRunCompletes) {
  const ChaosPoint& point = GetParam();
  SimulationParams p = liveness_params(point.kind);
  if (point.fiber_free) {
    p.num_fibers = 0;
    p.nodes_per_fiber = 0;
  }
  std::unique_ptr<Solver> solver = make_solver(point.kind, p);
  chaos::StallSpec stall;
  stall.point_substr = point.label;
  stall.duration_ms = 1;
  chaos::arm_stall(stall);
  solver->run(3);
  EXPECT_EQ(chaos::stalls_fired(), 1);
  EXPECT_EQ(solver->steps_completed(), 3);
}

INSTANTIATE_TEST_SUITE_P(
    FormerBeatOnlyLabels, ChaosPointTest,
    ::testing::Values(
        ChaosPoint{"cube:step:start", SolverKind::kCube, false},
        ChaosPoint{"cube:step:start", SolverKind::kDataflow, false},
        ChaosPoint{"cube:barrier:spread", SolverKind::kDataflow, false},
        ChaosPoint{"dataflow:barrier:spread", SolverKind::kDataflow, false},
        ChaosPoint{"dataflow:barrier:tasks-done", SolverKind::kDataflow,
                   false},
        ChaosPoint{"cube:barrier:step-end", SolverKind::kDataflow, false},
        ChaosPoint{"dataflow:overlapped-task", SolverKind::kDataflow, true},
        ChaosPoint{"distributed2d:step:start", SolverKind::kDistributed2D,
                   false},
        ChaosPoint{"distributed2d:barrier:step-end",
                   SolverKind::kDistributed2D, false}),
    [](const ::testing::TestParamInfo<ChaosPoint>& info) {
      std::string name = info.param.label;
      // A label another kind owns names the kind that runs through it.
      const std::string_view kind = solver_kind_name(info.param.kind);
      if (name.compare(0, kind.size() + 1, std::string(kind) + ":") != 0) {
        name += "_" + std::string(kind);
      }
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

// --- a cancelled cube solver runs again ---------------------------------

struct CancelCase {
  const char* name;
  CubeSolver::Schedule schedule;
  bool fiber_free;     ///< fiber-free runs overlap steps in one task graph
  const char* stall;   ///< where worker 1 sticks until the cancel
};

void PrintTo(const CancelCase& c, std::ostream* os) { *os << c.name; }

class CancelledCubeSolver : public ::testing::TestWithParam<CancelCase> {
 protected:
  void SetUp() override { chaos::reset(); }
  void TearDown() override {
    chaos::reset();
    ProgressBoard::global().clear_retired();
  }
};

// A run cancelled while worker 1 is stuck leaves the other workers part
// way into the barrier and, in the dataflow schedule, the dependency
// counters part-way down. Once a fresh solver's state is restored, the
// solver must run again and match that fresh solver bit for bit.
TEST_P(CancelledCubeSolver, RunsAgainAfterRestore) {
  const CancelCase& c = GetParam();
  SimulationParams p = presets::tiny();
  p.nx = p.ny = p.nz = 32;
  p.body_force = {1e-5, 0.0, 0.0};
  p.num_threads = 4;
  if (c.fiber_free) {
    p.num_fibers = 0;
    p.nodes_per_fiber = 0;
  }
  CubeSolver fresh(p, c.schedule);
  FluidGrid initial(p.nx, p.ny, p.nz);
  fresh.snapshot_fluid(initial);
  const Structure initial_structure = fresh.structure();

  CubeSolver solver(p, c.schedule);
  CancelToken token;
  CancelScope scope(&token);
  chaos::StallSpec stall;
  stall.point_substr = c.stall;
  stall.tid = 1;
  stall.duration_ms = -1;
  chaos::arm_stall(stall);
  WatchdogConfig config;
  config.deadline_ms = 500;
  {
    Watchdog watchdog(token, config);
    watchdog.start();
    EXPECT_THROW(solver.run(100000), CancelledError);
  }
  EXPECT_EQ(chaos::stalls_fired(), 1);
  chaos::reset();
  token.reset();

  solver.restore_state(initial, initial_structure, 0);
  config.deadline_ms = 5000;
  {
    Watchdog guard(token, config);
    guard.start();
    try {
      solver.run(30);
    } catch (const CancelledError&) {
      FAIL() << "the restored solver hung";
    }
  }
  fresh.run(30);
  const StateDiff diff = compare_solvers(fresh, solver);
  EXPECT_EQ(diff.max_any(), 0.0) << diff.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    BothSchedules, CancelledCubeSolver,
    ::testing::Values(
        CancelCase{"static", CubeSolver::Schedule::kStatic, false,
                   "cube:barrier:collide"},
        CancelCase{"dataflow", CubeSolver::Schedule::kDataflow, false,
                   "dataflow:task-loop"},
        CancelCase{"dataflow_overlapped", CubeSolver::Schedule::kDataflow,
                   true, "dataflow:overlapped-task"}),
    [](const ::testing::TestParamInfo<CancelCase>& info) {
      return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    StdThreadKinds, LivenessTest,
    ::testing::Values(SolverKind::kSequential, SolverKind::kCube,
                      SolverKind::kDataflow, SolverKind::kDistributed,
                      SolverKind::kDistributed2D),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return std::string(solver_kind_name(info.param));
    });

}  // namespace
}  // namespace lbmib
