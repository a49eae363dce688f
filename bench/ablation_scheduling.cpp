// Ablation: static cube ownership with barriers (Algorithm 4) vs dynamic
// task scheduling with per-cube dataflow (the paper's future-work item,
// CubeSolver's dataflow schedule, SolverKind::kDataflow).
//
// Static wins on uncontended dedicated cores (no queue overhead, perfect
// locality of ownership); dynamic wins when load is uneven (wall cubes,
// oversubscription, OS noise) because no thread waits at a mid-step
// barrier for a straggler.
#include <benchmark/benchmark.h>

#include "core/cube_solver.hpp"

namespace {

using namespace lbmib;

SimulationParams bench_params(int threads) {
  SimulationParams p;
  p.nx = 32;
  p.ny = 32;
  p.nz = 32;
  p.boundary = BoundaryType::kChannel;  // wall cubes make the load uneven
  p.body_force = {1e-5, 0.0, 0.0};
  p.num_fibers = 20;
  p.nodes_per_fiber = 20;
  p.sheet_width = 8.0;
  p.sheet_height = 8.0;
  p.sheet_origin = {12.0, 12.0, 12.0};
  p.num_threads = threads;
  p.cube_size = 4;
  return p;
}

void BM_StaticCubeSolver(benchmark::State& state) {
  CubeSolver solver(bench_params(static_cast<int>(state.range(0))));
  for (auto _ : state) solver.run(1);
}
BENCHMARK(BM_StaticCubeSolver)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

void BM_DataflowCubeSolver(benchmark::State& state) {
  CubeSolver solver(bench_params(static_cast<int>(state.range(0))),
                    CubeSolver::Schedule::kDataflow);
  for (auto _ : state) solver.run(1);
}
BENCHMARK(BM_DataflowCubeSolver)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

}  // namespace
