// The LBM-IB solver interface.
//
// A Solver owns the fluid state and the immersed structure, and advances
// them by executing the paper's nine computational kernels per time step
// (Algorithm 1). Six SolverKinds run on five implementations. The first
// three mirror the paper's three programs, the last two its future work:
//   * SequentialSolver    - single-threaded reference (Section III),
//   * OpenMPSolver        - loop-parallel version (Section IV),
//   * CubeSolver          - cube-centric Pthreads-style version (Section V),
//   * DataflowCubeSolver  - cube solver with dynamic task scheduling in
//                           place of the global barriers,
//   * Distributed2DSolver - message-passing ranks on ghosted tiles; it
//                           runs both kDistributed (R x 1 slabs) and
//                           kDistributed2D (balanced Rx x Ry tiles).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/params.hpp"
#include "common/profiler.hpp"
#include "common/types.hpp"
#include "ib/fiber_sheet.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/mrt.hpp"

namespace lbmib {

class Solver {
 public:
  explicit Solver(const SimulationParams& params);
  virtual ~Solver() = default;

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Advance the simulation by exactly one time step (all nine kernels).
  virtual void step() = 0;

  /// Called on the controlling thread between steps; receives the solver
  /// and the 0-based index of the step just completed.
  using StepObserver = std::function<void(Solver&, Index)>;

  /// Advance `num_steps` steps. If `observer` is set it runs after every
  /// `observer_interval`-th step. Parallel solvers may override this to
  /// keep one persistent thread team across all steps (Algorithm 4).
  virtual void run(Index num_steps, const StepObserver& observer = nullptr,
                   Index observer_interval = 1);

  /// Copy the current fluid state into `out` (planar layout). The planar
  /// solvers copy their grid; the cube solver converts from cubes.
  virtual void snapshot_fluid(FluidGrid& out) const = 0;

  /// Direct read access to the fluid state if this solver stores it in
  /// planar layout (sequential, OpenMP); null otherwise — callers then
  /// fall back to snapshot_fluid. Lets health scans avoid copying.
  virtual const FluidGrid* planar_fluid() const { return nullptr; }

  /// Replace the complete simulation state with a previously saved one
  /// (checkpoint rollback): fluid in planar layout, all sheets, and the
  /// completed-step counter. `fluid` must match the solver's dimensions
  /// and `structure` its sheet layout.
  virtual void restore_state(const FluidGrid& fluid,
                             const Structure& structure, Index step);

  /// Human-readable implementation name.
  virtual std::string name() const = 0;

  const SimulationParams& params() const { return params_; }

  /// The full immersed structure (one or more fiber sheets).
  Structure& structure() { return structure_; }
  const Structure& structure() const { return structure_; }

  /// The primary (first) sheet — the common single-sheet case.
  FiberSheet& sheet() { return structure_.front(); }
  const FiberSheet& sheet() const { return structure_.front(); }

  Index steps_completed() const { return steps_completed_; }

  /// Aggregated per-kernel wall time (all threads merged).
  const KernelProfiler& profiler() const { return profiler_; }
  KernelProfiler& profiler() { return profiler_; }

  /// Per-thread per-kernel times for load-imbalance analysis, one entry
  /// per thread, cumulative (profiler().clear() does not reset them).
  std::vector<KernelProfiler> per_thread_profiles() const {
    return thread_profiles_;
  }

 protected:
  /// Adopt `fluid` as the solver's fluid state (layout conversion as
  /// needed). Called by restore_state after the structure is in place.
  virtual void restore_fluid(const FluidGrid& fluid) = 0;

  /// Fold thread_profiles_ into profiler_: per phase row, the slowest
  /// thread's time since the previous merge.
  void merge_thread_profiles();

  SimulationParams params_;
  Structure structure_;  ///< never empty; [0] is the primary sheet
  /// Non-null iff params.collision == kMRT; shared by all kernel phases.
  std::unique_ptr<MrtOperator> mrt_;
  KernelProfiler profiler_;
  /// One per thread (num_threads entries; the sequential solver keeps
  /// one); solvers time into these.
  std::vector<KernelProfiler> thread_profiles_;
  Index steps_completed_ = 0;

 private:
  /// Per-row slowest-thread seconds already folded into profiler_.
  KernelProfiler merged_;
};

/// Which solver implementation to instantiate. kDataflow is the
/// dynamically scheduled variant of the cube solver; the two distributed
/// kinds are one message-passing solver on two rank meshes — the paper's
/// two future-work directions (see core/dataflow_solver.hpp,
/// core/distributed2d_solver.hpp).
enum class SolverKind {
  kSequential,
  kOpenMP,
  kCube,
  kDataflow,
  kDistributed,    ///< Distributed2DSolver on R x 1 slabs
  kDistributed2D,  ///< Distributed2DSolver on balanced Rx x Ry tiles
};

std::string_view solver_kind_name(SolverKind kind);

/// Factory covering every SolverKind.
std::unique_ptr<Solver> make_solver(SolverKind kind,
                                    const SimulationParams& params);

}  // namespace lbmib
