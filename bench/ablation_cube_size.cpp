// Ablation: how the cube edge length k trades off locality vs overhead.
//
// Small cubes fit L1 but pay more cross-cube streaming bookkeeping; large
// cubes amortize bookkeeping but blow past the per-core cache. One full
// fluid time step per iteration, single thread, on a 32^3 grid:
//   * BM_CubeTimestep — the reference pipeline (kernels 5, 6, 7, 9);
//   * BM_CubeFusedTimestep — the fused pipeline CubeSolver runs by default
//     (cube_collide_stream with SIMD, kernel 7, O(1) swap), which collides
//     every cube into a per-thread scratch block of 19 k^3 doubles before
//     pushing it; `walls` 1 adds channel walls (y and z faces solid).
#include <benchmark/benchmark.h>

#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"

namespace {

using namespace lbmib;

constexpr Index kEdge = 32;

void BM_CubeTimestep(benchmark::State& state) {
  const Index k = state.range(0);
  CubeGrid grid(kEdge, kEdge, kEdge, k);
  for (auto _ : state) {
    for (Size cube = 0; cube < grid.num_cubes(); ++cube) {
      cube_collide(grid, 0.8, cube);
      cube_stream(grid, cube);
    }
    for (Size cube = 0; cube < grid.num_cubes(); ++cube) {
      cube_update_velocity(grid, cube);
    }
    for (Size cube = 0; cube < grid.num_cubes(); ++cube) {
      cube_copy_distributions(grid, cube);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(grid.num_nodes()));
  state.counters["cube_block_KB"] = static_cast<double>(
      CubeGrid::kSlotsPerCube * grid.nodes_per_cube() * sizeof(Real)) /
      1024.0;
}
BENCHMARK(BM_CubeTimestep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->ArgName("k");

void BM_CubeFusedTimestep(benchmark::State& state) {
  const Index k = state.range(0);
  CubeGrid grid(kEdge, kEdge, kEdge, k);
  if (state.range(1) != 0) grid.apply_boundary(BoundaryType::kChannel);
  for (auto _ : state) {
    for (Size cube = 0; cube < grid.num_cubes(); ++cube) {
      cube_collide_stream(grid, 0.8, cube, /*simd=*/true);
    }
    for (Size cube = 0; cube < grid.num_cubes(); ++cube) {
      cube_update_velocity(grid, cube);
    }
    grid.swap_df_buffers();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(grid.num_nodes()));
  state.counters["scratch_KB"] = static_cast<double>(
      kQ * grid.nodes_per_cube() * sizeof(Real)) / 1024.0;
}
BENCHMARK(BM_CubeFusedTimestep)
    ->ArgsProduct({{1, 2, 4, 8, 16, 32}, {0, 1}})
    ->ArgNames({"k", "walls"});

}  // namespace
