// The cube-centric LBM-IB program of Section V (Algorithm 4), with two
// schedules for its fluid kernels.
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
// counts, distribution policies and schedules.
//
// Kernel 7 only where it is read. Under the fused pipeline nothing in a
// step reads the stored moments but kernel 8: the collision takes rho
// and u from df and the force, and inlet/outlet from the streamed df.
// Kernel 8 reads the velocity of the support nodes this step's spread
// wrote, and each owner's spread marks the cubes it writes (SpreadMarks,
// cube/spread_bins.hpp). So both schedules run kernel 7 on the marked
// cubes only, and leave the moments of the others stale. snapshot_fluid,
// the one way anything reads the fluid of a cube kind (health scans,
// checkpoints, compare_fluid, VTK), first settles them with one kernel-7
// sweep over every cube, billed to the kernel-7 row, which gives the
// moments the sweep of every step would have left. The same marks tell
// kernel 4 which cubes to reset: outside the marked cubes the force is
// exactly the body force. The reference pipeline keeps the paper's
// kernel 7 on every cube every step.
//
// The schedule decides only how kernels 5-7 (and the reference
// pipeline's kernel 9) run between the spread and the fiber move:
//   * Schedule::kStatic (SolverKind::kCube), the paper's program: each
//     thread sweeps its own cubes, with barrier #1 after collision +
//     streaming and barrier #2 after update_fluid_velocity (its marked
//     cubes under the fused pipeline).
//   * Schedule::kDataflow (SolverKind::kDataflow), the paper's
//     future-work "dynamic task scheduling": threads self-schedule
//     per-cube tasks from a lock-free queue between a spread-done and a
//     tasks-done barrier. COLLIDE+STREAM(t, c) counts down the update
//     counter of every cube in region(c), its 27-cube streaming
//     neighbourhood, and the last one publishes UPDATE+COPY(t, n), which
//     runs inlet/outlet, kernel 7 (a marked cube only, under the fused
//     pipeline) and, in the reference pipeline, the copy of its own cube.
//     No thread waits for the whole grid between the fluid kernels.
//
// Barrier placement: Algorithm 4 shows three barriers per step (after
// streaming, after update_fluid_velocity, and at the end of the step). We
// add a fourth between the fiber-force kernels 1-3 and spreading, so that
// every fiber's elastic force and every bin is published before any
// thread reads it. In the static schedule collision follows spreading
// with no barrier between them: it reads only its own cube's force, which
// only its own thread wrote. The dataflow schedule's tasks collide any
// cube, so it waits for every spread, and replaces the two fluid barriers
// with the tasks-done one: four per step as well. Both deviations are
// documented in DESIGN.md §7.
//
// TIME-STEP OVERLAP (the paper's other future-work item, "overlapping
// different time steps"): the task graph spans up to kMaxGraphSteps
// steps. Its dependency counting extends across them — COLLIDE+STREAM(t+1,
// c) becomes ready when UPDATE+COPY(t, n) has run for every n in
// region(c), so cubes on one side of the domain may be two phases ahead of
// the other side. A fiber-free run with no observer advances in such
// graphs; anything else runs one graph per step. The counters sit in
// banks [phase][step parity][cube] and re-arm themselves when they fire,
// so a finished graph leaves them ready for the next, and the queue is
// sized once for the largest graph.
#pragma once

#include <atomic>
#include <cstdint>
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
  /// How kernels 5-7 are scheduled (see the file comment).
  enum class Schedule { kStatic, kDataflow };

  /// Steps of the longest dataflow task graph: the queue's size bound.
  static constexpr Index kMaxGraphSteps = 32;

  CubeSolver(const SimulationParams& params,
             DistributionPolicy policy = DistributionPolicy::kBlock,
             BarrierKind barrier_kind = BarrierKind::kBlocking);

  /// The solver of `schedule`'s SolverKind: the dataflow schedule runs
  /// on the block owner table and the blocking barrier, unchecked by the
  /// access checker (its tasks write foreign cubes by design).
  CubeSolver(const SimulationParams& params, Schedule schedule);

  /// NUMA-aware construction: lay the thread mesh hierarchically over
  /// `topology` (numa_distribution.hpp) so each NUMA node owns one
  /// contiguous box of cubes. num_threads must use whole NUMA nodes or
  /// fit within one.
  CubeSolver(const SimulationParams& params,
             const MachineTopology& topology,
             DistributionPolicy policy = DistributionPolicy::kBlock,
             BarrierKind barrier_kind = BarrierKind::kBlocking);

  ~CubeSolver() override;

  void step() override;
  /// A run whose team unwinds (a cancellation, a failed worker) leaves
  /// the solver able to run again: the barrier is rebuilt and the task
  /// graph's counters are re-armed. The fluid and fibers are left
  /// part-way through a step; restore_state a saved state first.
  void run(Index num_steps, const StepObserver& observer = nullptr,
           Index observer_interval = 1) override;
  /// Settles the stored moments first if a fused step left them stale.
  void snapshot_fluid(FluidGrid& out) const override;
  /// In-step sweeps under the schedule's kernel-7 row (update_velocity,
  /// or the dataflow task.update_copy), plus the settle sweeps under
  /// update_velocity.
  double update_velocity_nodes(Phase row) const override;
  /// The SolverKind name of the schedule: "dataflow" for kDataflow.
  std::string name() const override {
    return schedule_ == Schedule::kDataflow ? "dataflow" : "cube";
  }

  CubeGrid& cubes() { return grid_; }
  const CubeGrid& cubes() const { return grid_; }
  const CubeDistribution& distribution() const { return dist_; }
  const ThreadMesh& thread_mesh() const { return mesh_; }

  /// Dataflow tasks executed by each thread since construction
  /// (load-balance probe; all zero under the static schedule).
  const std::vector<Size>& tasks_executed() const {
    return tasks_executed_;
  }

 private:
  CubeSolver(const SimulationParams& params, Schedule schedule,
             DistributionPolicy policy, BarrierKind barrier_kind);

  /// Adopt `fluid`, moments included, and mark every cube, since the
  /// restored force field may hold anything.
  void restore_fluid(const FluidGrid& fluid) override;

  /// Kernel 7 over every cube if a fused step left the moments stale,
  /// on the calling thread: worker 0 inside a step observer, or the
  /// caller between runs.
  void settle_moments();

  /// Arm every dependency counter with its cube's region size.
  void arm_counters();

  /// Shared tail of the constructors: access checker (static schedule),
  /// owned-fiber lists, task graph (dataflow schedule) and forces.
  void finish_construction(DistributionPolicy policy);

  /// Body of the paper's Thread_entry_fn for `num_steps` steps, advanced
  /// in graphs of at most `max_graph` steps (1 unless the dataflow
  /// schedule overlaps steps). `steps_before` is steps_completed() when
  /// the run began (the observer's step base).
  void thread_entry(int tid, Index num_steps, Index max_graph,
                    Index steps_before, const StepObserver& observer,
                    Index observer_interval);

  /// Execute `num_steps` steps with a freshly launched persistent team.
  void run_loop(Index num_steps, const StepObserver& observer,
                Index observer_interval);

  // --- dataflow schedule ------------------------------------------------

  /// Arm the task graph over `graph_steps` <= kMaxGraphSteps steps: seed
  /// step 0's collide tasks, empty the graph's other queue slots and
  /// rewind the queue. The dependency counters need no arming: each
  /// re-arms itself when it fires. Called by a single thread between
  /// graphs.
  void arm_graph(Index graph_steps);

  /// The task loop: take the armed graph's tasks until every one of its
  /// `graph_steps` steps is done. Returns the nodes its kernel 7 swept.
  Size run_tasks(int tid, Index graph_steps);

  /// Count one finished dependency on `counter`, cube `n`'s counter in
  /// one bank; the last one re-arms it and publishes `task` to the queue.
  void count_down(std::atomic<int>& counter, Size n, std::int64_t task);

  /// Wait for `slot` to be published and return it.
  static std::int64_t take_task(const std::atomic<std::int64_t>& slot);

  Schedule schedule_ = Schedule::kStatic;
  CubeGrid grid_;
  ThreadMesh mesh_;
  CubeDistribution dist_;
  BarrierKind barrier_kind_;
  std::unique_ptr<Barrier> barrier_;
  /// Owner table (cube id -> owning tid), each thread's cube list and
  /// each step's spread bins.
  SpreadBins bins_;
  /// The cubes each owner's last spread wrote.
  SpreadMarks marks_;
  /// Set by worker 0 at the start of each fused step, cleared by a
  /// settle and by construction and restore_state.
  bool moments_stale_ = false;
  /// Nodes kernel 7 swept inside steps, per thread (published once per
  /// run), and in settle sweeps.
  std::vector<Size> swept_nodes_;
  Size settled_nodes_ = 0;
  /// (sheet index, fiber index) pairs owned per thread; distribution uses
  /// the global fiber numbering across all sheets of the structure.
  std::vector<std::vector<std::pair<Size, Index>>> owned_fibers_;
  /// Debug ownership/phase checker, allocated and attached to grid_ only
  /// in LBMIB_CHECK_ACCESS builds of the static schedule (null
  /// otherwise).
  std::unique_ptr<AccessChecker> access_checker_;

  // Task graph of the dataflow schedule (empty under the static one).
  /// Distinct streaming neighbourhood (self + up to 26 cubes) per cube.
  std::vector<std::vector<Size>> region_;
  /// Dependency counters, flattened [phase][parity][cube]: phase 0 counts
  /// down to a collide task, phase 1 to an update task; parity is the
  /// task's step & 1 within its graph.
  std::vector<std::atomic<int>> pending_;
  /// Task slots, 2 * num_cubes per step of the largest graph.
  std::vector<std::atomic<std::int64_t>> queue_;
  std::atomic<Size> queue_head_{0};
  std::atomic<Size> queue_tail_{0};
  std::vector<Size> tasks_executed_;
};

}  // namespace lbmib
