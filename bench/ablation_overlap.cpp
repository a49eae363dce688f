// Ablation: per-step pipeline (barrier at each step boundary) vs the
// fully overlapped cross-step task graph (the paper's "overlapping
// different time steps" future work) on a fiber-free run.
#include <benchmark/benchmark.h>

#include "core/cube_solver.hpp"

namespace {

using namespace lbmib;

SimulationParams fluid_params(int threads) {
  SimulationParams p;
  p.nx = 32;
  p.ny = 32;
  p.nz = 32;
  p.boundary = BoundaryType::kChannel;
  p.body_force = {1e-5, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.num_threads = threads;
  p.cube_size = 4;
  return p;
}

constexpr Index kSteps = 8;

void BM_StepwisePipeline(benchmark::State& state) {
  CubeSolver solver(fluid_params(static_cast<int>(state.range(0))),
                    CubeSolver::Schedule::kDataflow);
  for (auto _ : state) {
    for (Index s = 0; s < kSteps; ++s) solver.step();  // barrier per step
  }
  state.counters["steps"] = kSteps;
}
BENCHMARK(BM_StepwisePipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void BM_OverlappedSteps(benchmark::State& state) {
  CubeSolver solver(fluid_params(static_cast<int>(state.range(0))),
                    CubeSolver::Schedule::kDataflow);
  for (auto _ : state) {
    solver.run(kSteps);  // one task graph, no step barriers
  }
  state.counters["steps"] = kSteps;
}
BENCHMARK(BM_OverlappedSteps)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace
