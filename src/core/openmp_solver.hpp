// The OpenMP LBM-IB program of Section IV.
//
// Fluid kernels are parallelized over contiguous x-slabs (the static
// scheduling of Algorithm 2: the 3-D grid is cut into segments of 2-D y-z
// surfaces); fiber kernels 1-3 and 8 over blocks of fibers (Algorithm 3).
// Force spreading is owner-computes: each thread spreads every fiber into
// its own x-slab only (an OwnedBox, lbm/owned_box.hpp), so no add is
// atomic and each fluid node sums its contributions in the sequential
// solver's order. The state is bit-identical to SequentialSolver's at
// any thread count (DESIGN.md §7, deviation 6).
//
// Each thread charges its own KernelProfiler so the Table II style load
// imbalance (max-avg)/max can be computed from per_thread_profiles().
#pragma once

#include "core/solver.hpp"

namespace lbmib {

class OpenMPSolver final : public Solver {
 public:
  explicit OpenMPSolver(const SimulationParams& params);

  void step() override;
  void snapshot_fluid(FluidGrid& out) const override;
  const FluidGrid* planar_fluid() const override { return &grid_; }
  std::string name() const override { return "openmp"; }

  FluidGrid& fluid() { return grid_; }
  const FluidGrid& fluid() const { return grid_; }

 private:
  void restore_fluid(const FluidGrid& fluid) override {
    grid_.copy_from(fluid);
  }

  FluidGrid grid_;
};

}  // namespace lbmib
