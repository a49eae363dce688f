// Profile truth: every solver's profiler, per-thread profiles and trace
// spans come from the one phase table (common/profiler.hpp) through
// KernelScope, so they must agree with each other and with the run.
//
//   * The aggregate of a run is the per-row slowest thread of that run
//     only — clearing the profiler and running again never reports
//     earlier runs.
//   * The fiber-free dataflow run (one cross-step task graph) bills its
//     tasks like the per-step pipeline does.
//   * A golden table pins, per solver kind and pipeline, the set of
//     (category, span name) a run emits and the set of kernels with
//     non-zero time; every kernel, task and halo span is a table row.
//   * A span that bills other rows still keys a roofline row with its
//     counters.
//   * Kernel 7's rows bill the nodes it swept: the fused cube step sweeps
//     only the cubes kernel 4 wrote and settles the rest when the fluid
//     is read; the reference pipeline sweeps every node every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "core/solver.hpp"
#include "lbm/fluid_grid.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"

namespace lbmib {
namespace {

const SolverKind kAllKinds[] = {
    SolverKind::kSequential, SolverKind::kOpenMP,
    SolverKind::kCube,       SolverKind::kDataflow,
    SolverKind::kDistributed, SolverKind::kDistributed2D};

SimulationParams truth_params(SolverKind kind, bool fused) {
  SimulationParams p = presets::tiny();
  p.num_threads = kind == SolverKind::kSequential ? 1 : 2;
  p.fused_step = fused;
  return p;
}

double total_of(const std::vector<KernelProfiler>& profiles) {
  double sum = 0.0;
  for (const KernelProfiler& p : profiles) sum += p.total_seconds();
  return sum;
}

class ProfileTruth : public ::testing::TestWithParam<SolverKind> {};

TEST_P(ProfileTruth, ClearedProfilerReportsOnlyTheNextRun) {
  std::unique_ptr<Solver> solver =
      make_solver(GetParam(), truth_params(GetParam(), true));
  solver->run(20);
  solver->profiler().clear();
  const double before = total_of(solver->per_thread_profiles());
  solver->run(1);
  const double own = total_of(solver->per_thread_profiles()) - before;
  const double aggregate = solver->profiler().total_seconds();
  EXPECT_GT(aggregate, 0.0);
  EXPECT_LE(aggregate, own + 1e-12)
      << "the aggregate must be the last run's slowest-thread time, not "
         "a replay of earlier runs";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ProfileTruth, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return std::string(solver_kind_name(info.param));
    });

TEST(ProfileTruthDataflow, FiberFreeOverlappedRunBillsCollision) {
  SimulationParams p = presets::tiny();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.num_threads = 2;
  std::unique_ptr<Solver> solver = make_solver(SolverKind::kDataflow, p);
  solver->run(5);  // fiber-free, no observer: the overlapped task graph
  EXPECT_EQ(solver->steps_completed(), 5);
  EXPECT_GT(solver->profiler().seconds(Kernel::kCollision), 0.0);
}

// --- golden spans and buckets ------------------------------------------

struct Golden {
  SolverKind kind;
  bool fused;
  std::set<std::string> spans;  ///< "category:name"
  std::set<int> kernels;        ///< paper indices with non-zero time
};

// Keeps the printed test parameter stable (the default prints bytes).
void PrintTo(const Golden& g, std::ostream* os) {
  *os << solver_kind_name(g.kind) << (g.fused ? " fused" : " reference");
}

std::vector<Golden> golden_table() {
  const std::set<std::string> planar_fused = {
      "kernel:bending",         "kernel:stretching", "kernel:elastic",
      "kernel:spread",          "kernel:collide_stream",
      "kernel:update_velocity", "kernel:move_fibers", "kernel:swap_df",
      "step:step"};
  const std::set<std::string> planar_reference = {
      "kernel:bending", "kernel:stretching",      "kernel:elastic",
      "kernel:spread",  "kernel:collide",         "kernel:stream",
      "kernel:update_velocity", "kernel:move_fibers", "kernel:copy_df",
      "step:step"};
  const std::set<std::string> cube_fused = {
      "kernel:bending",         "kernel:stretching",  "kernel:elastic",
      "kernel:spread",          "kernel:collide_stream",
      "kernel:update_velocity", "kernel:move_fibers", "kernel:swap_df",
      "barrier:barrier.wait",   "step:step"};
  const std::set<std::string> cube_reference = {
      "kernel:bending",         "kernel:stretching",  "kernel:elastic",
      "kernel:spread",          "kernel:collide_stream",
      "kernel:update_velocity", "kernel:move_fibers", "kernel:copy_df",
      "barrier:barrier.wait",   "step:step"};
  const std::set<std::string> dataflow_reference = {
      "kernel:bending",           "kernel:stretching",
      "kernel:elastic",           "kernel:spread",
      "task:task.collide_stream", "task:task.update_copy",
      "kernel:move_fibers",       "barrier:barrier.wait",
      "step:step"};
  std::set<std::string> dataflow_fused = dataflow_reference;
  dataflow_fused.insert("kernel:swap_df");
  const std::set<std::string> distributed_fused = {
      "kernel:bending",         "kernel:stretching",  "kernel:elastic",
      "kernel:spread",          "kernel:collide_stream",
      "halo:exchange_halos",    "kernel:update_velocity",
      "kernel:move_fibers",     "kernel:swap_df",
      "barrier:barrier.wait",   "step:step"};
  const std::set<std::string> distributed_reference = {
      "kernel:bending",         "kernel:stretching",  "kernel:elastic",
      "kernel:spread",          "kernel:collide",     "kernel:stream",
      "halo:exchange_halos",    "kernel:update_velocity",
      "kernel:move_fibers",     "kernel:copy_df",
      "barrier:barrier.wait",   "step:step"};

  const std::set<int> all = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::set<int> fused_no_stream = {1, 2, 3, 4, 5, 7, 8, 9};
  return {
      {SolverKind::kSequential, true, planar_fused, fused_no_stream},
      {SolverKind::kSequential, false, planar_reference, all},
      {SolverKind::kOpenMP, true, planar_fused, fused_no_stream},
      {SolverKind::kOpenMP, false, planar_reference, all},
      {SolverKind::kCube, true, cube_fused, fused_no_stream},
      {SolverKind::kCube, false, cube_reference, all},
      // Dataflow bills both task kinds to kernel 5; its fused swap
      // bills 9.
      {SolverKind::kDataflow, true, dataflow_fused, {1, 2, 3, 4, 5, 8, 9}},
      {SolverKind::kDataflow, false, dataflow_reference,
       {1, 2, 3, 4, 5, 8}},
      // The distributed ranks bill the halo exchange to kernel 6 under
      // both pipelines.
      {SolverKind::kDistributed, true, distributed_fused, all},
      {SolverKind::kDistributed, false, distributed_reference, all},
      {SolverKind::kDistributed2D, true, distributed_fused, all},
      {SolverKind::kDistributed2D, false, distributed_reference, all},
  };
}

class GoldenProfile : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenProfile, SpansAndBucketsMatchTheTable) {
  const Golden& g = GetParam();
  std::unique_ptr<Solver> solver =
      make_solver(g.kind, truth_params(g.kind, g.fused));
  obs::Tracer::start();
  solver->run(3);
  obs::Tracer::stop();

  std::set<int> kernels;
  for (int k = 0; k < kNumKernels; ++k) {
    if (solver->profiler().seconds(static_cast<Kernel>(k)) > 0.0) {
      kernels.insert(k + 1);
    }
  }
  EXPECT_EQ(kernels, g.kernels);

#if LBMIB_TRACE_ENABLED
  std::set<std::string> phase_names;
  for (const PhaseRow& row : kPhaseTable) phase_names.insert(row.name);
  std::set<std::string> spans;
  for (const obs::SpanEvent& e : obs::Tracer::drain()) {
    spans.insert(std::string(obs::to_string(e.cat)) + ":" + e.name);
    if (e.cat == obs::SpanCat::kKernel || e.cat == obs::SpanCat::kTask ||
        e.cat == obs::SpanCat::kHalo) {
      EXPECT_EQ(phase_names.count(e.name), 1u)
          << e.name << " is not a phase-table row";
    }
  }
  EXPECT_EQ(spans, g.spans);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsBothPipelines, GoldenProfile,
    ::testing::ValuesIn(golden_table()),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(solver_kind_name(info.param.kind)) +
             (info.param.fused ? "_fused" : "_reference");
    });

// --- kernel 7's swept nodes ---------------------------------------------

double nodes_of(const SimulationParams& p) {
  return static_cast<double>(p.nx) * static_cast<double>(p.ny) *
         static_cast<double>(p.nz);
}

double swept_nodes(const Solver& s) {
  return s.update_velocity_nodes(Phase::kUpdateVelocity) +
         s.update_velocity_nodes(Phase::kTaskUpdateCopy);
}

class Kernel7Sweeps : public ::testing::TestWithParam<SolverKind> {};

TEST_P(Kernel7Sweeps, FusedFiberFreeRunSweepsOnlyWhenTheFluidIsRead) {
  SimulationParams p = truth_params(GetParam(), true);
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  std::unique_ptr<Solver> solver = make_solver(GetParam(), p);
  // An observer that only stamps the time reads no fluid.
  std::vector<std::chrono::steady_clock::time_point> stamps;
  solver->run(6, [&stamps](Solver&, Index) {
    stamps.push_back(std::chrono::steady_clock::now());
  });
  ASSERT_EQ(stamps.size(), 6u);
  EXPECT_EQ(swept_nodes(*solver), 0.0);

  FluidGrid snap(p.nx, p.ny, p.nz);
  solver->snapshot_fluid(snap);
  EXPECT_EQ(swept_nodes(*solver), nodes_of(p));
  // The settle bills kernel 7's own row in either schedule.
  EXPECT_EQ(solver->update_velocity_nodes(Phase::kUpdateVelocity),
            nodes_of(p));
  EXPECT_GT(solver->profiler().seconds(Phase::kUpdateVelocity), 0.0);
  solver->snapshot_fluid(snap);
  EXPECT_EQ(swept_nodes(*solver), nodes_of(p));
}

TEST_P(Kernel7Sweeps, ReferencePipelineSweepsEveryNodeEveryStep) {
  const SimulationParams p = truth_params(GetParam(), false);
  std::unique_ptr<Solver> solver = make_solver(GetParam(), p);
  solver->run(5);
  FluidGrid snap(p.nx, p.ny, p.nz);
  solver->snapshot_fluid(snap);
  EXPECT_EQ(swept_nodes(*solver), nodes_of(p) * 5);
}

TEST_P(Kernel7Sweeps, RooflineBillsTheSweptNodes) {
  const SimulationParams p = truth_params(GetParam(), true);
  Simulation sim(GetParam(), p);
  sim.run(4);
  // The sheet's spread writes part of the grid each step.
  EXPECT_GT(swept_nodes(sim.solver()), 0.0);
  EXPECT_LT(swept_nodes(sim.solver()), nodes_of(p) * 4);
  FluidGrid snap(p.nx, p.ny, p.nz);
  sim.solver().snapshot_fluid(snap);
  const perfmodel::RooflineReport report = sim.roofline_report();
  int rows = 0;
  for (const Phase phase : {Phase::kUpdateVelocity, Phase::kTaskUpdateCopy}) {
    const auto row = std::find_if(
        report.rows.begin(), report.rows.end(),
        [phase](const perfmodel::RooflineRow& r) {
          return r.kernel == phase_name(phase);
        });
    if (row == report.rows.end()) continue;
    ++rows;
    EXPECT_EQ(row->units, sim.solver().update_velocity_nodes(phase))
        << phase_name(phase);
  }
  EXPECT_GE(rows, 1);
}

INSTANTIATE_TEST_SUITE_P(
    CubeKinds, Kernel7Sweeps,
    ::testing::Values(SolverKind::kCube, SolverKind::kDataflow),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return std::string(solver_kind_name(info.param));
    });

#if LBMIB_TRACE_ENABLED
TEST(ProfileTruthRoofline, CubeReferenceCollideStreamRowKeepsItsCounters) {
  // The cube reference pipeline bills collide and stream per cube inside
  // one collide_stream span; the counters sampled under that span keep
  // their roofline row, timed by the CPU time they saw.
  Simulation sim(SolverKind::kCube, truth_params(SolverKind::kCube, false));
  if (!sim.enable_perf_counters()) {
    GTEST_SKIP() << "host grants no perf events";
  }
  sim.run(3);
  obs::PerfCounters::stop();
  const perfmodel::RooflineReport report = sim.roofline_report();
  obs::PerfCounters::reset();

  auto find = [&report](const char* name) {
    return std::find_if(report.rows.begin(), report.rows.end(),
                        [name](const perfmodel::RooflineRow& r) {
                          return r.kernel == name;
                        });
  };
  const auto fused = find("collide_stream");
  ASSERT_NE(fused, report.rows.end());
  EXPECT_TRUE(fused->has_counters);
  EXPECT_GT(fused->seconds, 0.0);
  // The per-cube rows keep the profiler's seconds.
  for (const char* name : {"collide", "stream"}) {
    const auto row = find(name);
    ASSERT_NE(row, report.rows.end()) << name;
    EXPECT_GT(row->seconds, 0.0) << name;
  }
}
#endif

}  // namespace
}  // namespace lbmib
