// Ablation: the distributed-memory solver (paper future work #1) on both
// of its rank meshes — R x 1 slabs (kDistributed) and balanced tiles
// (kDistributed2D) — vs the shared-memory OpenMP solver on identical
// inputs: what moving to explicit halo exchange costs per step, plus the
// communication volume.
//
// On a real cluster the comparison flips: the distributed version scales
// past one node while shared memory cannot. Here the point is that the
// halo protocol's overhead is modest and its volume is what each mesh's
// tile shape predicts (5 populations per face, 1 per corner column).
#include <iomanip>
#include <iostream>
#include <thread>

#include "core/distributed2d_solver.hpp"
#include "core/openmp_solver.hpp"
#include "io/csv_writer.hpp"
#include "lbmib.hpp"

namespace {

using lbmib::Distributed2DSolver;

/// Halo KB one rank sends to *other* ranks per step, averaged over the
/// ranks: 5 populations per x face (lny x nz) and per y face (lnx x nz),
/// 1 per corner column (nz). Messages a rank sends to itself (an R x 1
/// mesh's y faces, everything at one rank) never leave it and are not
/// counted.
double halo_kb_per_rank_step(const Distributed2DSolver& solver,
                             const lbmib::SimulationParams& p) {
  const int rx = solver.ranks_x(), ry = solver.ranks_y();
  double reals = 0.0;
  for (int r = 0; r < rx * ry; ++r) {
    const Distributed2DSolver::Tile t = solver.tile_of(r);
    const double lnx = static_cast<double>(t.x_hi - t.x_lo);
    const double lny = static_cast<double>(t.y_hi - t.y_lo);
    double per_z = 0.0;
    if (rx > 1) per_z += 2 * 5 * lny;
    if (ry > 1) per_z += 2 * 5 * lnx;
    if (rx * ry > 1) per_z += 4;
    reals += per_z * static_cast<double>(p.nz);
  }
  return reals * sizeof(lbmib::Real) / 1024.0 / (rx * ry);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbmib;
  const Index steps = argc > 1 ? std::atol(argv[1]) : 6;

  SimulationParams base;
  base.nx = 48;
  base.ny = 24;
  base.nz = 24;
  base.boundary = BoundaryType::kChannel;
  base.body_force = {1e-5, 0.0, 0.0};
  base.num_fibers = 16;
  base.nodes_per_fiber = 16;
  base.sheet_width = 8.0;
  base.sheet_height = 8.0;
  base.sheet_origin = {20.0, 8.0, 8.0};

  std::cout << "=== Ablation: distributed-memory (halo exchange) vs "
               "shared-memory OpenMP ===\n";
  std::cout << "grid " << base.nx << "x" << base.ny << "x" << base.nz
            << ", " << steps << " steps; hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";

  // Columns per SolverKind: "distributed" runs slabs, "distributed2d"
  // tiles.
  CsvWriter csv("ablation_distributed.csv",
                {"ranks", "openmp_seconds", "distributed_seconds",
                 "distributed2d_seconds", "distributed_halo_KB_per_rank_step",
                 "distributed2d_halo_KB_per_rank_step"});

  std::cout << std::setw(7) << "ranks" << std::setw(13) << "OpenMP (s)"
            << std::setw(12) << "slabs (s)" << std::setw(12) << "tiles (s)"
            << std::setw(26) << "halo KB/rank/step s | t" << '\n';
  std::cout << std::string(70, '-') << '\n';
  for (int ranks : {1, 2, 4, 8}) {
    SimulationParams p = base;
    p.num_threads = ranks;
    double omp_s;
    {
      OpenMPSolver solver(p);
      WallTimer timer;
      solver.run(steps);
      omp_s = timer.seconds();
    }
    double seconds[2], halo_kb[2];
    const Distributed2DSolver::Mesh meshes[2] = {
        Distributed2DSolver::Mesh::kSlabs, Distributed2DSolver::Mesh::kTiles};
    for (int m = 0; m < 2; ++m) {
      Distributed2DSolver solver(p, meshes[m]);
      WallTimer timer;
      solver.run(steps);
      seconds[m] = timer.seconds();
      halo_kb[m] = halo_kb_per_rank_step(solver, p);
    }
    csv.row({static_cast<double>(ranks), omp_s, seconds[0], seconds[1],
             halo_kb[0], halo_kb[1]});
    std::cout << std::setw(7) << ranks << std::setw(13) << std::fixed
              << std::setprecision(3) << omp_s << std::setw(12)
              << seconds[0] << std::setw(12) << seconds[1]
              << std::setw(16) << std::setprecision(1) << halo_kb[0]
              << " | " << halo_kb[1] << '\n';
  }
  std::cout << "\n(plus one 3*fiber-nodes all-reduce per step for the "
               "structure)\nWrote ablation_distributed.csv\n";
  return 0;
}
