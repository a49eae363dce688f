// Dataflow (dynamic task scheduling) cube solver.
//
// The paper's conclusion names as future work "removing the global
// synchronizations by using dynamic task scheduling". This solver
// implements that idea for the fluid phases of the cube algorithm:
//
//   * Work is self-scheduled: threads pull tasks from a lock-free queue
//     instead of owning a static cube subset, so load imbalance between
//     wall cubes (which bounce-back) and interior cubes evens out.
//   * The two fluid barriers of Algorithm 4 are replaced by per-cube
//     dependency counting: a cube's update_fluid_velocity becomes ready
//     the moment the *last* cube of its 27-cube streaming neighbourhood
//     has streamed — no thread waits for the whole grid. copy (kernel 9)
//     and, in runs with fibers, the next step's force reset run
//     immediately after each cube's update, in the same task.
//
// Per time step the task graph holds exactly 2 * num_cubes tasks:
//   COLLIDE+STREAM(t, c) -> decrements the update counter of every cube
//                           in region(c); a counter hitting zero
//                           enqueues UPDATE+COPY(t, n).
// Fiber kernels 1-3 (fused per fiber) and 8 are self-scheduled through
// atomic fiber counters. Kernel 4 is owner-computes, as in CubeSolver:
// each thread bins a fixed block of every sheet's fibers by the owners of
// a static spread owner table (CubeSolver's block table for the same
// thread count), and once a barrier has published every elastic force and
// bin, spreads the nodes binned to it into its own cubes with
// cube_spread_force_owned, so no add is atomic. Five barriers per step
// remain in runs with fibers
// (forces published, spreading done, tasks done, fibers moved, queue
// re-armed) and four without, versus CubeSolver's four — and none of
// them sits between the fluid kernels.
//
// TIME-STEP OVERLAP (the paper's other future-work item, "overlapping
// different time steps"): the task graph spans any number of steps. Its
// dependency counting extends across them — COLLIDE+STREAM(t+1, c)
// becomes ready when UPDATE+COPY(t, n) has run for every n in region(c).
// Runs with fibers, runs with an observer and single steps run the graph
// over one step between the fiber barriers. A fiber-free multi-step run
// with no observer runs it over the whole run, with zero barriers between
// steps: cubes on one side of the domain may be two phases ahead of the
// other side. One queue, one publish and one task loop serve both; the
// counters sit in banks [phase][step parity][cube] and re-arm themselves
// when they fire, so a finished graph leaves them ready for the next.
//
// The state is bit-identical to CubeSolver's at any thread count: every
// fluid node sums its fiber contributions in the sequential order, and
// every task writes slots no other task writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/solver.hpp"
#include "cube/cube_grid.hpp"
#include "cube/spread_bins.hpp"
#include "parallel/barrier.hpp"

namespace lbmib {

class DataflowCubeSolver final : public Solver {
 public:
  explicit DataflowCubeSolver(const SimulationParams& params);
  ~DataflowCubeSolver() override;

  void step() override;
  void run(Index num_steps, const StepObserver& observer = nullptr,
           Index observer_interval = 1) override;
  void snapshot_fluid(FluidGrid& out) const override;
  std::string name() const override { return "dataflow"; }

  CubeGrid& cubes() { return grid_; }
  const CubeGrid& cubes() const { return grid_; }

  /// Tasks executed by each thread since construction (load-balance
  /// probe).
  const std::vector<Size>& tasks_executed() const {
    return tasks_executed_;
  }

 private:
  void restore_fluid(const FluidGrid& fluid) override {
    grid_.from_planar(fluid);
  }

  /// One graph per step, between the fiber barriers. `steps_before` is
  /// steps_completed() when the run began (the observer's step base).
  void thread_entry(int tid, Index num_steps, Index steps_before,
                    const StepObserver& observer, Index observer_interval);

  /// Arm the task graph over `graph_steps` steps: seed step 0's collide
  /// tasks, empty every other queue slot and rewind the queue and fiber
  /// cursors. The dependency counters need no arming: each re-arms itself
  /// when it fires. Called by a single thread between graphs.
  void arm_graph(Index graph_steps);

  /// The task loop: take the armed graph's tasks until every one of its
  /// `graph_steps` steps is done.
  void run_tasks(int tid, Index graph_steps);

  /// After a graph over `graph_steps` steps: move the fused pipeline's
  /// parity to where the graph left the result (billed to `prof`) and
  /// count the steps.
  void finish_graph(KernelProfiler& prof, Index graph_steps);

  /// Count one finished dependency on `counter`, cube `n`'s counter in
  /// one bank; the last one re-arms it and publishes `task` to the queue.
  void count_down(std::atomic<int>& counter, Size n, std::int64_t task);

  /// Wait for `slot` to be published, count it as one of thread `tid`'s
  /// tasks and return it.
  std::int64_t take_task(int tid, const std::atomic<std::int64_t>& slot);

  CubeGrid grid_;
  BlockingBarrier barrier_;
  /// Kernel 4's bins over CubeSolver's block owner table (cube ->
  /// spreading thread) for the same thread count. Only kernel 4 uses the
  /// table; the fluid tasks stay self-scheduled.
  SpreadBins spread_bins_;

  // --- dataflow state -------------------------------------------------
  // Distinct streaming neighbourhood (self + up to 26 cubes) per cube.
  std::vector<std::vector<Size>> region_;
  std::vector<int> pending_init_;  // region_[c].size() for each c

  /// Dependency counters, flattened [phase][parity][cube]: phase 0 counts
  /// down to a collide task, phase 1 to an update task; parity is the
  /// task's step & 1 within its graph.
  std::vector<std::atomic<int>> pending_;
  /// Task slots, 2 * num_cubes per step of the armed graph.
  std::vector<std::atomic<std::int64_t>> queue_;
  std::atomic<Size> queue_head_{0};
  std::atomic<Size> queue_tail_{0};

  // Fiber self-scheduling: global fiber index across sheets.
  std::vector<std::pair<Size, Index>> fiber_list_;  // (sheet, fiber)
  std::atomic<Size> fiber_cursor_{0};
  std::atomic<Size> move_cursor_{0};

  std::vector<Size> tasks_executed_;
};

}  // namespace lbmib
