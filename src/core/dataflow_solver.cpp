#include "core/dataflow_solver.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "core/instrument.hpp"
#include "cube/cube_kernels.hpp"
#include "cube/distribution.hpp"
#include "ib/fiber_forces.hpp"
#include "lbm/boundary.hpp"
#include "obs/metrics.hpp"
#include "parallel/modelcheck.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {

namespace {

// Task encoding in the queue, for the flat id t * num_cubes + c of cube c
// at step t of the graph: positive = COLLIDE+STREAM, flat + 1; negative =
// UPDATE+COPY, -(flat + 1); kEmptySlot marks an unfilled slot.
constexpr std::int64_t kEmptySlot = std::numeric_limits<std::int64_t>::min();

std::int64_t encode_collide(Size flat) {
  return static_cast<std::int64_t>(flat) + 1;
}
std::int64_t encode_update(Size flat) {
  return -(static_cast<std::int64_t>(flat) + 1);
}

}  // namespace

DataflowCubeSolver::DataflowCubeSolver(const SimulationParams& params)
    : Solver(params),
      grid_(params),
      barrier_(params.num_threads),
      spread_bins_(structure_,
                   CubeDistribution(grid_.cubes_x(), grid_.cubes_y(),
                                    grid_.cubes_z(),
                                    fitted_mesh(params.num_threads,
                                                grid_.cubes_x(),
                                                grid_.cubes_y(),
                                                grid_.cubes_z()))
                       .owner_table(),
                   params.num_threads, params.num_threads),
      tasks_executed_(static_cast<Size>(params.num_threads), 0) {
  const Size ncubes = grid_.num_cubes();

  // Distinct streaming neighbourhoods. With periodic wrap on tiny grids a
  // neighbour may coincide with the cube itself or with another offset,
  // so deduplicate. The relation is symmetric, so region_[c] is both "who
  // c writes into" and "who must finish before c updates".
  region_.resize(ncubes);
  pending_init_.resize(ncubes);
  for (Size c = 0; c < ncubes; ++c) {
    std::vector<Size>& r = region_[c];
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          r.push_back(grid_.neighbor_cube(c, dx, dy, dz));
        }
      }
    }
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
    pending_init_[c] = static_cast<int>(r.size());
  }

  // Four banks: [phase][parity], each armed with every cube's region size.
  pending_ = std::vector<std::atomic<int>>(4 * ncubes);
  for (Size i = 0; i < pending_.size(); ++i) {
    pending_[i].store(pending_init_[i % ncubes], std::memory_order_relaxed);
  }

  Index global = 0;
  for (Size s = 0; s < structure_.size(); ++s) {
    for (Index f = 0; f < structure_[s].num_fibers(); ++f, ++global) {
      fiber_list_.emplace_back(s, f);
    }
  }

  grid_.reset_forces(params_.body_force);
  arm_graph(1);
}

DataflowCubeSolver::~DataflowCubeSolver() {
  // Drop the queue's and counters' sync-var clocks so a future allocation
  // at the same address starts clean.
  LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active()) {
    for (const auto& q : queue_) rd->forget_sync(&q);
    for (const auto& p : pending_) rd->forget_sync(&p);
  })
}

void DataflowCubeSolver::arm_graph(Index graph_steps) {
  const Size ncubes = grid_.num_cubes();
  const Size slots = 2 * ncubes * static_cast<Size>(graph_steps);
  if (queue_.size() != slots) {
    LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active()) {
      for (const auto& q : queue_) rd->forget_sync(&q);
    })
    queue_ = std::vector<std::atomic<std::int64_t>>(slots);
  }
  // Pre-fill the first ncubes slots with step 0's collide tasks; the rest
  // are filled as dependencies resolve.
  for (Size i = 0; i < slots; ++i) {
    queue_[i].store(i < ncubes ? encode_collide(i) : kEmptySlot,
                    std::memory_order_relaxed);
  }
  queue_head_.store(0, std::memory_order_relaxed);
  queue_tail_.store(ncubes, std::memory_order_relaxed);
  fiber_cursor_.store(0, std::memory_order_relaxed);
  move_cursor_.store(0, std::memory_order_relaxed);
}

void DataflowCubeSolver::count_down(std::atomic<int>& counter, Size n,
                                    std::int64_t task) {
  // Race-detector edges mirror the atomics: contribute the clock BEFORE
  // the decrement (so every earlier decrementer's clock is in the sync
  // var by the time the last one re-reads it), re-join it after observing
  // 1, and release onto the published queue slot. The re-arm is safe: the
  // chain collide(t) < update(t) < collide(t+1) < update(t+1) <
  // collide(t+2) keeps the counter's next use, two steps on, behind it.
  LBMIB_MC_CHECK(mc::sched_point(mc::Op::kEdgeAcqRel, &counter);)
  LBMIB_RACE_CHECK(race::edge_acq_rel(&counter);)
  if (counter.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    LBMIB_RACE_CHECK(race::edge_acquire(&counter);)
    counter.store(pending_init_[n], std::memory_order_relaxed);
    const Size slot = queue_tail_.fetch_add(1, std::memory_order_relaxed);
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kEdgeRelease, &queue_[slot]);)
    LBMIB_RACE_CHECK(race::edge_release(&queue_[slot]);)
    queue_[slot].store(task, std::memory_order_release);
    LBMIB_MC_CHECK(mc::notify(&queue_[slot]);)
  }
}

std::int64_t DataflowCubeSolver::take_task(
    int tid, const std::atomic<std::int64_t>& slot) {
  constexpr const char* kWhere = "dataflow:task-slot-wait";
  // The slot may not be published yet; it must become non-empty because
  // every task is produced exactly once — unless the producer died or
  // stalled, which is why the slow (yield) branch of the spin is a
  // cancellation point. Under the model checker the spin becomes a
  // cooperative wait on the slot (the publisher's mc::notify on the same
  // address wakes it), so an unpublished task is a structural deadlock
  // rather than a livelock.
  LBMIB_MC_CHECK(if (mc::active()) {
    mc::sched_point(mc::Op::kEdgeAcquire, &slot);
    const CancelToken* token = CancelToken::current();
    mc::wait_until(&slot, [&slot, token] {
      return slot.load(std::memory_order_acquire) != kEmptySlot ||
             (token != nullptr && token->cancelled());
    });
    if (slot.load(std::memory_order_acquire) == kEmptySlot) {
      cancel_point(kWhere);
    }
  })
  std::int64_t task;
  int spins = 0;
  while ((task = slot.load(std::memory_order_acquire)) == kEmptySlot) {
    if (++spins >= 256) {
      spins = 0;
      cancel_point(kWhere);
      std::this_thread::yield();  // oversubscribed hosts
    } else {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  ++tasks_executed_[static_cast<Size>(tid)];
  LBMIB_TRACE_ON(if (obs::Tracer::active()) {
    obs::metric_dataflow_tasks().inc();
  })
  // Order this thread after whoever published the slot (seeded collide
  // slots carry no edge; the spread barrier or the team launch orders
  // those).
  LBMIB_RACE_CHECK(race::edge_acquire(&slot);)
  return task;
}

void DataflowCubeSolver::thread_entry(int tid, Index num_steps,
                                      Index steps_before,
                                      const StepObserver& observer,
                                      Index observer_interval) {
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  const Size nfibers = fiber_list_.size();

  for (Index step = 0; step < num_steps; ++step) {
    cancel_point("dataflow:step");
    sync_point("dataflow:step:start", tid, step);
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(step));
    // --- fiber force phase: kernels 1-3 fused per fiber, self-scheduled
    {
      KernelScope scope(prof, Phase::kFiberForcesFused);
      for (;;) {
        cancel_point("dataflow:fiber-forces");
        const Size i = fiber_cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= nfibers) break;
        const auto [s, f] = fiber_list_[i];
        FiberSheet& sheet = structure_[s];
        compute_bending_force(sheet, f, f + 1);
        compute_stretching_force(sheet, f, f + 1);
        compute_elastic_force(sheet, f, f + 1);
      }
    }
    if (nfibers > 0) {
      // Kernel 4, owner computes: bin this thread's fixed fiber block of
      // every sheet by spread owner; once every elastic force and bin is
      // published, spread the nodes binned to this thread into the cubes
      // the spread owner table gives it.
      {
        KernelScope scope(prof, Phase::kFiberForcesFused);
        spread_bins_.bin(structure_, grid_, tid);
      }
      sync_point("dataflow:barrier:forces", tid, step, barrier_);
      KernelScope scope(prof, Phase::kFiberForcesFused);
      cube_spread_force_owned(structure_, grid_, spread_bins_, tid);
    }
    // Spreading complete before collision.
    sync_point("dataflow:barrier:spread", tid, step, barrier_);

    // --- fluid dataflow: this step's task graph
    sync_point("dataflow:task-loop", tid, step);
    run_tasks(tid, 1);
    // All velocities in place.
    sync_point("dataflow:barrier:tasks-done", tid, step, barrier_);

    // --- move fibers, self-scheduled ------------------------------------
    {
      KernelScope scope(prof, Phase::kMoveFibers);
      for (;;) {
        cancel_point("dataflow:move-fibers");
        const Size i = move_cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= nfibers) break;
        const auto [s, f] = fiber_list_[i];
        cube_move_fibers(structure_[s], grid_, f, f + 1);
      }
    }
    // Positions settled.
    sync_point("dataflow:barrier:moved", tid, step, barrier_);

    if (tid == 0) {
      // Safe here: the "positions settled" barrier is behind every thread
      // and nobody touches the grid until the re-arm barrier below
      // publishes the flip and the next graph.
      finish_graph(prof, 1);
      if (step + 1 < num_steps) arm_graph(1);
    }
    // Queue re-armed for everyone.
    sync_point("dataflow:barrier:rearm", tid, step, barrier_);

    if (observer && (steps_before + step + 1) % observer_interval == 0) {
      if (tid == 0) observer(*this, steps_completed_ - 1);
      barrier_.arrive_and_wait();
    }
  }
}

void DataflowCubeSolver::run_tasks(int tid, Index graph_steps) {
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  const Size ncubes = grid_.num_cubes();
  const Size total_tasks = 2 * ncubes * static_cast<Size>(graph_steps);
  // Fused pipeline: there is no per-step copy (and no quiescent point
  // inside a graph to flip the grid's bases at), so parity is tracked per
  // *step* and passed to the kernels explicitly — step t reads the field
  // that step t-1 wrote, at parity p0 ^ (t & 1). The task graph already
  // orders every access: collide(t, n) < update(t, n) < collide(t+1, m)
  // for every m with n in region(m), so step t's source planes are fully
  // read before collide(t+1) starts overwriting them. finish_graph
  // reconciles the grid's bases once after the graph.
  const bool p0 = grid_.swap_parity();
  // A fiber-free force field never leaves the body force.
  const bool reset_forces = !fiber_list_.empty();
  // Each task bills its own row; the slot-wait spin bills nothing.
  Size slot;
  while ((slot = queue_head_.fetch_add(1, std::memory_order_relaxed)) <
         total_tasks) {
    // No step number in a multi-step graph: a task's step is known only
    // once it is read.
    if (graph_steps > 1) sync_point("dataflow:overlapped-task", tid, -1);
    const std::int64_t task = take_task(tid, queue_[slot]);
    const bool is_collide = task > 0;
    const Size flat = static_cast<Size>(is_collide ? task - 1 : -task - 1);
    const Size step = flat / ncubes;
    const Size cube = flat % ncubes;
    const Size parity = step & 1;
    // The reference pipeline copies df_new back every step, so its
    // parity never moves.
    const bool src_parity = p0 != (params_.fused_step && parity != 0);
    const Size src_base = CubeGrid::df_base_for(src_parity);
    const Size dst_base = CubeGrid::df_base_for(!src_parity);
    KernelScope scope(prof,
                      is_collide ? Phase::kTaskCollideStream
                                 : Phase::kTaskUpdateCopy,
                      static_cast<std::int64_t>(cube));

    if (is_collide) {
      if (params_.fused_step) {
        cube_collide_stream(grid_, params_.tau, cube, src_base, dst_base,
                            params_.simd_step, mrt_.get());
      } else {
        cube_collide(grid_, params_.tau, cube, mrt_.get());
        cube_stream(grid_, cube);
      }
      // The last streamer of a neighbourhood publishes that cube's update.
      for (Size n : region_[cube]) {
        count_down(pending_[(2 + parity) * ncubes + n], n,
                   encode_update(step * ncubes + n));
      }
    } else {
      if (uses_inlet_outlet(params_.boundary)) {
        cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube,
                                dst_base);
      }
      cube_update_velocity(grid_, cube, dst_base);
      if (!params_.fused_step) cube_copy_distributions(grid_, cube);
      // Reset forces for the next step's spreading.
      if (reset_forces) grid_.reset_forces(cube, params_.body_force);
      if (step + 1 < static_cast<Size>(graph_steps)) {
        // collide(step+1, n) may only touch cubes whose step-`step` state
        // is fully retired.
        const Size next_parity = (step + 1) & 1;
        for (Size n : region_[cube]) {
          count_down(pending_[next_parity * ncubes + n], n,
                     encode_collide((step + 1) * ncubes + n));
        }
      }
    }
  }
}

void DataflowCubeSolver::finish_graph(KernelProfiler& prof,
                                      Index graph_steps) {
  // Kernel 9 of the fused pipeline: step t of the graph wrote its result
  // at parity p0 ^ (t & 1) ^ 1, so a graph over an odd number of steps
  // leaves it at the flipped parity.
  if (params_.fused_step && graph_steps % 2 == 1) {
    KernelScope scope(prof, Phase::kSwapDf);
    grid_.swap_df_buffers();
  }
  steps_completed_ += graph_steps;
}

void DataflowCubeSolver::step() { run(1); }

void DataflowCubeSolver::run(Index num_steps, const StepObserver& observer,
                             Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  if (num_steps <= 0) return;
  // Fiber-free multi-step runs with no observer run one graph over the
  // whole run, overlapping its time steps (the paper's "overlapping
  // different time steps" future work); anything else runs one graph per
  // step.
  const bool whole_run = fiber_list_.empty() && !observer && num_steps > 1;
  arm_graph(whole_run ? num_steps : 1);
  const Index steps_before = steps_completed_;
  ThreadTeam team(params_.num_threads);
  if (whole_run) {
    team.run([&](int tid) { run_tasks(tid, num_steps); });
    finish_graph(thread_profiles_[0], num_steps);
  } else {
    team.run([&](int tid) {
      thread_entry(tid, num_steps, steps_before, observer,
                   observer_interval);
    });
  }
  merge_thread_profiles();
}

void DataflowCubeSolver::snapshot_fluid(FluidGrid& out) const {
  grid_.to_planar(out);
}

}  // namespace lbmib
