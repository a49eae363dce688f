// API-surface and cross-cutting regression tests: behaviours a
// downstream user relies on that no single-subsystem test pins down.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "lbmib.hpp"

namespace lbmib {
namespace {

TEST(ApiSurface, UmbrellaHeaderExposesTheCoreTypes) {
  // Everything a typical application touches must be reachable through
  // lbmib.hpp alone (this file includes nothing else from the library).
  SimulationParams params = presets::tiny();
  params.collision = CollisionModel::kMRT;
  params.num_threads = 2;
  Simulation sim(SolverKind::kCube, params);
  sim.run(3);
  EXPECT_EQ(sim.steps_completed(), 3);

  FluidGrid snapshot(params.nx, params.ny, params.nz);
  sim.solver().snapshot_fluid(snapshot);
  EXPECT_GT(kinetic_energy(snapshot), -1.0);  // observables reachable
  EXPECT_GT(pressure(snapshot, 0), 0.0);

  const TuneResult tuned = tune_cube_size(params, {4, 8}, 1);
  EXPECT_GT(tuned.best_cube_size, 0);

  const MachineTopology thog = thog_topology();  // numa model reachable
  EXPECT_EQ(thog.total_cores(), 64);
}

TEST(ApiSurface, ProfilerReportAvailableFromEverySolver) {
  SimulationParams p = presets::tiny();
  p.num_threads = 2;
  for (SolverKind kind :
       {SolverKind::kSequential, SolverKind::kOpenMP, SolverKind::kCube,
        SolverKind::kDataflow, SolverKind::kDistributed,
        SolverKind::kDistributed2D}) {
    auto solver = make_solver(kind, p);
    solver->run(2);
    EXPECT_GT(solver->profiler().total_seconds(), 0.0)
        << solver_kind_name(kind);
    EXPECT_FALSE(solver->per_thread_profiles().empty())
        << solver_kind_name(kind);
    const std::string report = solver->profiler().report();
    EXPECT_NE(report.find("compute_fluid_collision"), std::string::npos);
  }
}

TEST(ApiSurface, SolversRejectInvalidParamsAtConstruction) {
  SimulationParams bad = presets::tiny();
  bad.tau = 0.5;
  for (SolverKind kind :
       {SolverKind::kSequential, SolverKind::kOpenMP, SolverKind::kCube,
        SolverKind::kDataflow, SolverKind::kDistributed,
        SolverKind::kDistributed2D}) {
    EXPECT_THROW(make_solver(kind, bad), Error) << solver_kind_name(kind);
  }
}

TEST(ApiSurface, RunWithZeroOrNegativeStepsIsSafe) {
  SimulationParams p = presets::tiny();
  p.num_threads = 2;
  for (SolverKind kind :
       {SolverKind::kSequential, SolverKind::kCube, SolverKind::kDataflow,
        SolverKind::kDistributed, SolverKind::kDistributed2D}) {
    auto solver = make_solver(kind, p);
    solver->run(0);
    EXPECT_EQ(solver->steps_completed(), 0) << solver_kind_name(kind);
  }
}

TEST(ApiSurface, InterleavedRunsAccumulateSteps) {
  SimulationParams p = presets::tiny();
  p.num_threads = 3;
  for (SolverKind kind : {SolverKind::kCube, SolverKind::kDistributed}) {
    auto solver = make_solver(kind, p);
    solver->run(2);
    solver->step();
    solver->run(3);
    EXPECT_EQ(solver->steps_completed(), 6) << solver_kind_name(kind);
  }
}

TEST(ApiSurface, SnapshotRejectsWrongDimensions) {
  SimulationParams p = presets::tiny();
  auto solver = make_solver(SolverKind::kDistributed, p);
  FluidGrid wrong(p.nx, p.ny, p.nz + 4);
  EXPECT_THROW(solver->snapshot_fluid(wrong), Error);
}

TEST(ApiSurface, ViscosityAndSummaryHelpers) {
  SimulationParams p = presets::tiny();
  p.tau = 1.1;
  EXPECT_NEAR(p.viscosity(), 0.2, 1e-12);
  EXPECT_NE(p.summary().find("tau=1.1"), std::string::npos);
}

TEST(ApiSurface, DeepRunDoesNotDriftMass) {
  // A longer cross-solver integration: 60 steps on the cube solver must
  // conserve mass in a periodic box just like the sequential reference.
  SimulationParams p = presets::tiny();
  p.num_threads = 4;
  auto solver = make_solver(SolverKind::kCube, p);
  FluidGrid before(p.nx, p.ny, p.nz);
  solver->snapshot_fluid(before);
  const Real mass0 = before.total_mass();
  solver->run(60);
  FluidGrid after(p.nx, p.ny, p.nz);
  solver->snapshot_fluid(after);
  EXPECT_NEAR(after.total_mass(), mass0, 1e-9 * mass0);
}

TEST(ApiSurface, ObserverReceivesTheRunningSolver) {
  SimulationParams p = presets::tiny();
  p.num_threads = 2;
  auto solver = make_solver(SolverKind::kDataflow, p);
  bool saw_self = false;
  solver->run(
      2,
      [&](Solver& s, Index) { saw_self = (&s == solver.get()); },
      2);
  EXPECT_TRUE(saw_self);
}

/// Every kind fires the observer when the number of completed steps is a
/// multiple of the interval, counted from construction, not from the
/// start of the run.
class ObserverRule : public ::testing::TestWithParam<SolverKind> {};

TEST_P(ObserverRule, FiresAtMultiplesOfCompletedSteps) {
  SimulationParams p = presets::tiny();
  p.num_threads = 2;
  auto solver = make_solver(GetParam(), p);
  solver->run(3);
  std::vector<Index> seen;
  solver->run(
      6,
      [&](Solver& s, Index step) {
        EXPECT_EQ(s.steps_completed(), step + 1);
        seen.push_back(step);
      },
      2);
  EXPECT_EQ(seen, (std::vector<Index>{3, 5, 7}));
  EXPECT_EQ(solver->steps_completed(), 9);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ObserverRule,
    ::testing::Values(SolverKind::kSequential, SolverKind::kOpenMP,
                      SolverKind::kCube, SolverKind::kDataflow,
                      SolverKind::kDistributed, SolverKind::kDistributed2D),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return std::string(solver_kind_name(info.param));
    });

TEST(ApiSurface, StructureAccessorsAreConsistent) {
  SimulationParams p = presets::tiny();
  SheetSpec extra;
  extra.num_fibers = 3;
  extra.nodes_per_fiber = 3;
  extra.width = 2.0;
  extra.height = 2.0;
  extra.origin = {10.0, 10.0, 10.0};
  p.extra_sheets.push_back(extra);
  auto solver = make_solver(SolverKind::kSequential, p);
  EXPECT_EQ(solver->structure().size(), 2u);
  EXPECT_EQ(&solver->sheet(), &solver->structure().front());
  EXPECT_EQ(structure_num_nodes(solver->structure()),
            p.fiber_nodes());
}

}  // namespace
}  // namespace lbmib
