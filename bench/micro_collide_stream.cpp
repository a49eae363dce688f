// Per-kernel microbenchmark for the fused collide-stream hot path: how
// many million lattice-node updates per second each constituent delivers
// in isolation on one thread, for BGK and MRT —
//   * collide_scalar — the reference per-node kernel (collide_range /
//     MrtOperator::collide_node over every node),
//   * collide_simd   — the lane-block kernel (fused_block_bgk/mrt) run as
//     a pure in-place collide over whole direction planes,
//   * stream_only    — stream_x_slab (kernel 6) alone,
//   * fused_scalar   — the fused sweep with the vector path disabled,
//   * fused_simd     — the fused sweep as the solvers run it,
//   * cube_fused_simd  — the cube sweep (cube_collide_stream over every
//     cube, cube size 8) on the same grid and state, as CubeSolver runs it,
//   * cube_stream_only — its push alone (cube_stream over every cube).
//
// The cube rows need an edge divisible by 8; other edges leave them out.
//
// The collide_scalar vs collide_simd gap is the pure SIMD win; the
// fused_scalar vs fused_simd gap is what survives boundary handling and
// the streaming scatter. Output: a table plus micro_collide_stream.json
// (consumed by scripts/run_benchmarks.sh, embedded in BENCH_step.json)
// annotated with the compile-time vector ISA.
//
// Usage: micro_collide_stream [edge] [iters] [reps]
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "cube/cube_grid.hpp"
#include "cube/cube_kernels.hpp"
#include "lbm/collision.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/fused.hpp"
#include "lbm/mrt.hpp"
#include "lbm/simd.hpp"
#include "lbm/simd_kernels.hpp"
#include "lbm/streaming.hpp"

int main(int argc, char** argv) {
  using namespace lbmib;
  const Index edge = argc > 1 ? std::atol(argv[1]) : 48;
  const int iters = argc > 2 ? std::atoi(argv[2]) : 20;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 3;
  const Real tau = 0.8;

  FluidGrid grid(edge, edge, edge);
  grid.initialize(1.0, {0.02, 0.01, 0.0});
  const Size n = grid.num_nodes();
  for (Size node = 0; node < n; ++node) {
    grid.force(node) = {1e-5, 0.0, 0.0};
  }
  const MrtOperator mrt(MrtRelaxation::from_tau(tau));
  const double mln = static_cast<double>(n) * iters / 1e6;

  // Best-of-reps MLUPS of `body` run `iters` times.
  auto measure = [&](auto&& body) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      for (int it = 0; it < iters; ++it) body();
      const double s = timer.seconds();
      if (rep == 0 || s < best) best = s;
    }
    return mln / best;
  };

  const Real* src[kQ];
  Real* dst[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    src[dir] = grid.df_plane(dir);
    dst[dir] = grid.df_plane(dir);
  }

  struct Row {
    std::string name;
    double mlups;
  };
  std::vector<Row> rows;
  auto record = [&](const std::string& name, double mlups) {
    rows.push_back({name, mlups});
    std::cout << std::setw(22) << name << std::setw(12) << std::fixed
              << std::setprecision(2) << mlups << "\n";
  };

  std::cout << "=== Fused collide-stream microbenchmark ===\n"
            << "grid " << edge << "^3, " << iters << " iterations, best of "
            << reps << ", single thread\n"
            << "vector ISA: " << simd::isa_name() << " ("
            << simd::vector_width_doubles() << " doubles/vector, lane block "
            << simd::kLaneBlock << ")\n\n"
            << std::setw(22) << "kernel" << std::setw(12) << "MLUPS\n"
            << std::string(34, '-') << "\n";

  record("collide_scalar_bgk",
         measure([&] { collide_range(grid, tau, 0, n); }));
  record("collide_simd_bgk", measure([&] {
           fused_block_bgk(src, dst, grid.fx_data(), grid.fy_data(),
                           grid.fz_data(), n, tau);
         }));
  record("collide_scalar_mrt", measure([&] {
           Real* planes[kQ];
           for (int dir = 0; dir < kQ; ++dir) {
             planes[dir] = grid.df_plane(dir);
           }
           for (Size node = 0; node < n; ++node) {
             Real g[kQ];
             for (int dir = 0; dir < kQ; ++dir) g[dir] = planes[dir][node];
             mrt.collide_node(g, grid.force(node));
             for (int dir = 0; dir < kQ; ++dir) planes[dir][node] = g[dir];
           }
         }));
  record("collide_simd_mrt", measure([&] {
           fused_block_mrt(src, dst, grid.fx_data(), grid.fy_data(),
                           grid.fz_data(), n, mrt);
         }));
  record("stream_only", measure([&] {
           stream_x_slab(grid, 0, edge);
           grid.swap_buffers();
         }));
  record("fused_scalar_bgk", measure([&] {
           fused_collide_stream_x_slab(grid, tau, nullptr, 0, edge,
                                       /*simd=*/false);
           grid.swap_buffers();
         }));
  record("fused_simd_bgk", measure([&] {
           fused_collide_stream_x_slab(grid, tau, nullptr, 0, edge,
                                       /*simd=*/true);
           grid.swap_buffers();
         }));
  record("fused_scalar_mrt", measure([&] {
           fused_collide_stream_x_slab(grid, tau, &mrt, 0, edge,
                                       /*simd=*/false);
           grid.swap_buffers();
         }));
  record("fused_simd_mrt", measure([&] {
           fused_collide_stream_x_slab(grid, tau, &mrt, 0, edge,
                                       /*simd=*/true);
           grid.swap_buffers();
         }));
  constexpr Index kCubeSize = 8;
  if (edge % kCubeSize == 0) {
    CubeGrid cubes(edge, edge, edge, kCubeSize);
    cubes.from_planar(grid);
    record("cube_fused_simd", measure([&] {
             for (Size c = 0; c < cubes.num_cubes(); ++c) {
               cube_collide_stream(cubes, tau, c, /*simd=*/true);
             }
             cubes.swap_df_buffers();
           }));
    record("cube_stream_only", measure([&] {
             for (Size c = 0; c < cubes.num_cubes(); ++c) {
               cube_stream(cubes, c);
             }
             cubes.swap_df_buffers();
           }));
  }

  {
    std::ofstream json("micro_collide_stream.json");
    json << std::setprecision(6) << std::fixed;
    json << "{\n  \"bench\": \"micro_collide_stream\",\n  \"edge\": "
         << edge << ",\n  \"iters\": " << iters
         << ",\n  \"vector_isa\": \"" << simd::isa_name()
         << "\",\n  \"vector_width_doubles\": "
         << simd::vector_width_doubles()
         << ",\n  \"lane_block\": " << simd::kLaneBlock
         << ",\n  \"auto_tile_y\": " << fused_auto_tile_y(edge, edge)
         << ",\n  \"kernels\": {\n";
    for (Size i = 0; i < rows.size(); ++i) {
      json << "    \"" << rows[i].name << "_mlups\": " << rows[i].mlups
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  }\n}\n";
  }
  std::cout << "\nWrote micro_collide_stream.json\n";
  return 0;
}
