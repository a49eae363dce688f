// Reproduces Figure 8: weak scalability of the OpenMP vs the cube-based
// implementation.
//
// Paper setup: fixed 104 x 104 fiber sheet; fluid volume grows with the
// core count starting from 128^3 per core; 1..64 cores of the thog
// machine. Reported: the cube version's time grows far more slowly
// (+3%/+13%/+18% per doubling) than OpenMP's (+25%..+42%), ending 53%
// faster at 64 cores.
//
// THIS HOST: limited cores -> thread counts beyond the hardware run
// oversubscribed and *both* curves grow with the workload; the comparison
// of the two implementations at equal thread count is still meaningful
// (same work, same oversubscription). The locality side of the story is
// reproduced architecture-independently by table2_locality via the cache
// model. On a 64-core machine this harness reproduces Figure 8 directly.
//
// Usage: fig8_weak_scaling [steps] [max_threads] [per_thread_edge]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "core/cube_solver.hpp"
#include "core/openmp_solver.hpp"
#include "io/csv_writer.hpp"
#include "lbmib.hpp"

namespace {

/// Grow the grid like the paper: double nx, then ny, then nz, ...
void grow(lbmib::SimulationParams& p, int doublings) {
  for (int d = 0; d < doublings; ++d) {
    if (d % 3 == 0) {
      p.nx *= 2;
    } else if (d % 3 == 1) {
      p.ny *= 2;
    } else {
      p.nz *= 2;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbmib;

  const Index steps = argc > 1 ? std::atol(argv[1]) : 6;
  const int max_threads = argc > 2 ? std::atoi(argv[2]) : 8;
  const Index edge = argc > 3 ? std::atol(argv[3]) : 24;

  std::cout << "=== Figure 8 reproduction: weak scaling, OpenMP vs "
               "cube-based ===\n";
  std::cout << "per-thread fluid volume: " << edge << "^3 nodes, " << steps
            << " steps; hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";

  CsvWriter csv("fig8_weak_scaling.csv",
                {"threads", "fluid_nodes", "openmp_seconds",
                 "cube_seconds", "cube_vs_openmp_percent"});

  std::cout << std::setw(8) << "threads" << std::setw(16) << "grid"
            << std::setw(12) << "OpenMP (s)" << std::setw(12)
            << "Cube (s)" << std::setw(14) << "cube gain" << '\n';
  std::cout << std::string(62, '-') << '\n';

  int doublings = 0;
  for (int threads = 1; threads <= max_threads;
       threads *= 2, ++doublings) {
    SimulationParams p;
    p.nx = edge;
    p.ny = edge;
    p.nz = edge;
    grow(p, doublings);
    p.tau = 0.8;
    p.boundary = BoundaryType::kChannel;
    p.body_force = {1e-5, 0.0, 0.0};
    // Fixed fiber input like the paper (scaled from 104x104).
    p.num_fibers = 26;
    p.nodes_per_fiber = 26;
    p.sheet_width = 10.0;
    p.sheet_height = 10.0;
    p.sheet_origin = {static_cast<Real>(edge) / 2.0,
                      static_cast<Real>(edge) / 2.0 - 5.0,
                      static_cast<Real>(edge) / 2.0 - 5.0};
    p.num_threads = threads;
    p.cube_size = 8;  // on the plateau of bench/ablation_cube_size

    double omp_seconds, cube_seconds;
    {
      OpenMPSolver solver(p);
      WallTimer timer;
      solver.run(steps);
      omp_seconds = timer.seconds();
    }
    {
      CubeSolver solver(p);
      WallTimer timer;
      solver.run(steps);
      cube_seconds = timer.seconds();
    }
    const double gain =
        100.0 * (omp_seconds - cube_seconds) / omp_seconds;
    csv.row({static_cast<double>(threads),
             static_cast<double>(p.fluid_nodes()), omp_seconds,
             cube_seconds, gain});
    std::cout << std::setw(8) << threads << std::setw(9) << p.nx << "x"
              << p.ny << "x" << p.nz << std::setw(12) << std::fixed
              << std::setprecision(3) << omp_seconds << std::setw(12)
              << cube_seconds << std::setw(12) << std::setprecision(1)
              << gain << "%" << '\n';
  }

  std::cout << "\nPaper reference (Figure 8): cube-based outperforms "
               "OpenMP by up to 53% at 64 cores; cube time grows 3-18% "
               "per doubling vs 22-42% for OpenMP.\n"
               "Wrote fig8_weak_scaling.csv\n";
  return 0;
}
