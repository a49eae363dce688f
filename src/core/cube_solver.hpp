// The cube-centric LBM-IB program of Section V (Algorithm 4).
//
// The fluid grid is blocked into k^3-node cubes (CubeGrid); cubes are
// statically assigned to a P x Q x R thread mesh through cube2thread() and
// fibers through fiber2thread(). run() launches one persistent worker per
// thread that executes the whole time loop — the paper's Thread_entry_fn —
// with barrier synchronization between dependent kernel phases.
//
// Force spreading is owner-computes instead of the paper's per-owner
// locks: each thread runs kernels 1-3 on its own fibers and bins a fixed
// block of every sheet's fibers by the owners their supports reach
// (SpreadBins); after the barrier each thread walks only the nodes binned
// to it and adds only the part of their support that lands in its own
// cubes (cube_spread_force_owned). No thread writes a foreign cube and no
// lock is taken, and each fluid node sums its contributions in the
// sequential solver's order, so the state is bit-identical across thread
// counts and distribution policies.
//
// Barrier placement: Algorithm 4 shows three barriers per step (after
// streaming, after update_fluid_velocity, and at the end of the step). We
// add a fourth between the fiber-force kernels 1-3 and spreading, so that
// every fiber's elastic force and every bin is published before any
// thread reads it.
// Collision follows spreading with no barrier between them: it reads only
// its own cube's force, which only its own thread wrote. Both deviations
// are documented in DESIGN.md §7.
#pragma once

#include <vector>

#include "core/solver.hpp"
#include "cube/cube_grid.hpp"
#include "cube/distribution.hpp"
#include "cube/numa_distribution.hpp"
#include "cube/spread_bins.hpp"
#include "parallel/access_checker.hpp"
#include "parallel/barrier.hpp"
#include "parallel/mesh.hpp"

namespace lbmib {

class CubeSolver final : public Solver {
 public:
  CubeSolver(const SimulationParams& params,
             DistributionPolicy policy = DistributionPolicy::kBlock,
             BarrierKind barrier_kind = BarrierKind::kBlocking);

  /// NUMA-aware construction: lay the thread mesh hierarchically over
  /// `topology` (numa_distribution.hpp) so each NUMA node owns one
  /// contiguous box of cubes. num_threads must use whole NUMA nodes or
  /// fit within one.
  CubeSolver(const SimulationParams& params,
             const MachineTopology& topology,
             DistributionPolicy policy = DistributionPolicy::kBlock,
             BarrierKind barrier_kind = BarrierKind::kBlocking);

  void step() override;
  void run(Index num_steps, const StepObserver& observer = nullptr,
           Index observer_interval = 1) override;
  void snapshot_fluid(FluidGrid& out) const override;
  std::string name() const override { return "cube"; }

  CubeGrid& cubes() { return grid_; }
  const CubeGrid& cubes() const { return grid_; }
  const CubeDistribution& distribution() const { return dist_; }
  const ThreadMesh& thread_mesh() const { return mesh_; }

 private:
  void restore_fluid(const FluidGrid& fluid) override {
    grid_.from_planar(fluid);
  }

  /// Shared tail of both constructors: owner table, owned-cube/fiber
  /// lists + forces.
  void finish_construction(DistributionPolicy policy);

  /// Body of the paper's Thread_entry_fn for `num_steps` steps.
  /// `steps_before` is steps_completed() when the run began (the
  /// observer's step base).
  void thread_entry(int tid, Index num_steps, Index steps_before,
                    const StepObserver& observer, Index observer_interval);

  /// Execute `num_steps` steps with a freshly launched persistent team.
  void run_loop(Index num_steps, const StepObserver& observer,
                Index observer_interval);

  CubeGrid grid_;
  ThreadMesh mesh_;
  CubeDistribution dist_;
  std::unique_ptr<Barrier> barrier_;
  /// Owner table (cube id -> owning tid) and each step's spread bins.
  SpreadBins bins_;
  std::vector<std::vector<Size>> owned_cubes_;  // cube ids per thread
  /// (sheet index, fiber index) pairs owned per thread; distribution uses
  /// the global fiber numbering across all sheets of the structure.
  std::vector<std::vector<std::pair<Size, Index>>> owned_fibers_;
  /// Debug ownership/phase checker, allocated and attached to grid_ only
  /// in LBMIB_CHECK_ACCESS builds (null otherwise).
  std::unique_ptr<AccessChecker> access_checker_;
};

}  // namespace lbmib
