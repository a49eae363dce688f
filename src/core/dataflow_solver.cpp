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

// Task encoding in the queue: positive = COLLIDE+STREAM(cube),
// negative = -(UPDATE+COPY(cube)) - 1; kEmpty marks an unfilled slot.
constexpr std::int64_t kEmptySlot = std::numeric_limits<std::int64_t>::min();

std::int64_t encode_collide(Size cube) {
  return static_cast<std::int64_t>(cube) + 1;
}
std::int64_t encode_update(Size cube) {
  return -(static_cast<std::int64_t>(cube) + 1);
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

  pending_ = std::vector<std::atomic<int>>(ncubes);
  queue_ = std::vector<std::atomic<std::int64_t>>(2 * ncubes);

  Index global = 0;
  for (Size s = 0; s < structure_.size(); ++s) {
    for (Index f = 0; f < structure_[s].num_fibers(); ++f, ++global) {
      fiber_list_.emplace_back(s, f);
    }
  }

  grid_.reset_forces(params_.body_force);
  arm_step();
}

void DataflowCubeSolver::arm_step() {
  const Size ncubes = grid_.num_cubes();
  for (Size c = 0; c < ncubes; ++c) {
    pending_[c].store(pending_init_[c], std::memory_order_relaxed);
    // Pre-fill the first ncubes slots with the collide tasks; the rest
    // are filled as dependencies resolve.
    queue_[c].store(encode_collide(c), std::memory_order_relaxed);
    queue_[ncubes + c].store(kEmptySlot, std::memory_order_relaxed);
  }
  queue_head_.store(0, std::memory_order_relaxed);
  queue_tail_.store(ncubes, std::memory_order_relaxed);
  fiber_cursor_.store(0, std::memory_order_relaxed);
  move_cursor_.store(0, std::memory_order_relaxed);
}

std::int64_t DataflowCubeSolver::take_task(
    int tid, const std::atomic<std::int64_t>& slot, const char* where) {
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
      cancel_point(where);
    }
  })
  std::int64_t task;
  int spins = 0;
  while ((task = slot.load(std::memory_order_acquire)) == kEmptySlot) {
    if (++spins >= 256) {
      spins = 0;
      cancel_point(where);
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
                                      const StepObserver& observer,
                                      Index observer_interval) {
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  const Size total_tasks = 2 * grid_.num_cubes();
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

    // --- fluid dataflow: COLLIDE+STREAM -> (deps) -> UPDATE+COPY -------
    // Each task bills its own row; the slot-wait spin bills nothing.
    {
      sync_point("dataflow:task-loop", tid, step);
      Size slot;
      while ((slot = queue_head_.fetch_add(1, std::memory_order_relaxed)) <
             total_tasks) {
        const std::int64_t task =
            take_task(tid, queue_[slot], "dataflow:task-slot-wait");
        if (task > 0) {
          const Size cube = static_cast<Size>(task - 1);
          KernelScope scope(prof, Phase::kTaskCollideStream,
                            static_cast<std::int64_t>(cube));
          if (params_.fused_step) {
            cube_collide_stream(grid_, params_.tau, cube, params_.simd_step,
                                mrt_.get());
          } else {
            cube_collide(grid_, params_.tau, cube, mrt_.get());
            cube_stream(grid_, cube);
          }
          // Resolve dependencies: the last streamer of a neighbourhood
          // publishes that cube's update task. Race-detector edges mirror
          // the atomics: contribute the clock BEFORE the decrement (so
          // every earlier decrementer's clock is in the sync var by the
          // time the last one re-reads it), re-join it after observing 1,
          // and release onto the published queue slot.
          for (Size n : region_[cube]) {
            LBMIB_MC_CHECK(
                mc::sched_point(mc::Op::kEdgeAcqRel, &pending_[n]);)
            LBMIB_RACE_CHECK(race::edge_acq_rel(&pending_[n]);)
            if (pending_[n].fetch_sub(1, std::memory_order_acq_rel) == 1) {
              LBMIB_RACE_CHECK(race::edge_acquire(&pending_[n]);)
              const Size out =
                  queue_tail_.fetch_add(1, std::memory_order_relaxed);
              LBMIB_RACE_CHECK(race::edge_release(&queue_[out]);)
              queue_[out].store(encode_update(n),
                                std::memory_order_release);
              LBMIB_MC_CHECK(mc::notify(&queue_[out]);)
            }
          }
        } else {
          const Size cube = static_cast<Size>(-task - 1);
          KernelScope scope(prof, Phase::kTaskUpdateCopy,
                            static_cast<std::int64_t>(cube));
          if (uses_inlet_outlet(params_.boundary)) {
            cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube);
          }
          cube_update_velocity(grid_, cube);
          if (!params_.fused_step) cube_copy_distributions(grid_, cube);
          // Reset forces for the next step's spreading (raw slot writes,
          // bypassing the hooked add_force accessors).
          LBMIB_RACE_CHECK(race::access(&grid_, cube, RaceField::kForce,
                                        RaceAccess::kWrite,
                                        "reset forces");)
          Real* fx = grid_.slot(cube, CubeGrid::kFxSlot);
          Real* fy = grid_.slot(cube, CubeGrid::kFySlot);
          Real* fz = grid_.slot(cube, CubeGrid::kFzSlot);
          for (Size l = 0; l < grid_.nodes_per_cube(); ++l) {
            fx[l] = params_.body_force.x;
            fy[l] = params_.body_force.y;
            fz[l] = params_.body_force.z;
          }
        }
      }
    }
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
      // Kernel 9 of the fused pipeline: flip the grid's df/df_new bases
      // once per step. Safe here: the "positions settled" barrier is
      // behind every thread and nobody touches the grid until the
      // re-arm barrier below publishes the flip.
      if (params_.fused_step) {
        KernelScope scope(prof, Phase::kSwapDf);
        grid_.swap_df_buffers();
      }
      ++steps_completed_;
      arm_step();
    }
    // Queue re-armed for everyone.
    sync_point("dataflow:barrier:rearm", tid, step, barrier_);

    if (observer && ((step + 1) % observer_interval == 0)) {
      if (tid == 0) observer(*this, steps_completed_ - 1);
      barrier_.arrive_and_wait();
    }
  }
}

void DataflowCubeSolver::run_overlapped(Index num_steps) {
  // One task graph for the whole run. Task encoding: for step t,
  //   collide(t, c) = t * 2*ncubes + c + 1          (positive family)
  //   update(t, c)  = -(t * 2*ncubes + c + 1)       (negative family)
  // Dependency counters are per cube with one bank per step *parity*;
  // a counter is re-armed for step t+2 the moment it fires for step t
  // (safe: the chain collide(t) < update(t) < collide(t+1) < update(t+1)
  // < collide(t+2) guarantees no step-(t+2) decrement can arrive before
  // the re-arm).
  const Size ncubes = grid_.num_cubes();
  const Size per_step = 2 * ncubes;
  const Size total_tasks = per_step * static_cast<Size>(num_steps);

  std::vector<std::atomic<std::int64_t>> queue(total_tasks);
  for (auto& q : queue) q.store(kEmptySlot, std::memory_order_relaxed);
  // pending[phase][parity][cube]: phase 0 = collide, 1 = update.
  std::vector<std::atomic<int>> pending(4 * ncubes);
  for (Size c = 0; c < ncubes; ++c) {
    // Step 0 collides unconditionally (seeded below); its parity-0
    // collide bank is armed for step 2.
    pending[0 * ncubes + c].store(pending_init_[c]);  // collide, parity 0
    pending[1 * ncubes + c].store(pending_init_[c]);  // collide, parity 1
    pending[2 * ncubes + c].store(pending_init_[c]);  // update,  parity 0
    pending[3 * ncubes + c].store(pending_init_[c]);  // update,  parity 1
    queue[c].store(static_cast<std::int64_t>(c) + 1,
                   std::memory_order_relaxed);  // seed collide(0, c)
  }
  std::atomic<Size> head{0};
  std::atomic<Size> tail{ncubes};

  auto publish = [&](std::int64_t task) {
    const Size slot = tail.fetch_add(1, std::memory_order_relaxed);
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kEdgeRelease, &queue[slot]);)
    LBMIB_RACE_CHECK(race::edge_release(&queue[slot]);)
    queue[slot].store(task, std::memory_order_release);
    LBMIB_MC_CHECK(mc::notify(&queue[slot]);)
  };

  // Fused pipeline: there is no per-step copy (and no quiescent point to
  // flip the grid's bases at), so swap parity is tracked per *step* and
  // passed to the kernels explicitly — step t reads the field that step
  // t-1 wrote. The task graph already orders every access:
  // collide(t, n) < update(t, n) < collide(t+1, m) for every m with
  // n in region(m), so step t's source planes are fully read before
  // collide(t+1) starts overwriting them. The grid's own bases are
  // reconciled once after the run.
  const bool p0 = grid_.swap_parity();

  ThreadTeam team(params_.num_threads);
  team.run([&](int tid) {
    KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
    Size slot;
    while ((slot = head.fetch_add(1, std::memory_order_relaxed)) <
           total_tasks) {
      // No step number: a task's step is known only once it is read.
      sync_point("dataflow:overlapped-task", tid, -1);
      const std::int64_t task =
          take_task(tid, queue[slot], "dataflow:overlapped-slot-wait");
      const bool is_collide = task > 0;
      const Size flat = static_cast<Size>(is_collide ? task - 1 : -task - 1);
      const Size step = flat / per_step;
      const Size cube = flat % per_step;  // < ncubes by construction
      const Size parity = step & 1;
      // Step t's df lives at parity p0 ^ (t & 1); its df_new at the other.
      const bool src_parity = p0 != ((step & 1) != 0);
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
        // Enable update(step, n) for completed neighbourhoods.
        for (Size n : region_[cube]) {
          auto& counter = pending[(2 + parity) * ncubes + n];
          LBMIB_MC_CHECK(mc::sched_point(mc::Op::kEdgeAcqRel, &counter);)
          LBMIB_RACE_CHECK(race::edge_acq_rel(&counter);)
          if (counter.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            LBMIB_RACE_CHECK(race::edge_acquire(&counter);)
            counter.store(pending_init_[n], std::memory_order_relaxed);
            publish(-(static_cast<std::int64_t>(step * per_step + n) + 1));
          }
        }
      } else {
        if (params_.fused_step) {
          if (uses_inlet_outlet(params_.boundary)) {
            cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube,
                                    dst_base);
          }
          cube_update_velocity(grid_, cube, dst_base);
        } else {
          if (uses_inlet_outlet(params_.boundary)) {
            cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube);
          }
          cube_update_velocity(grid_, cube);
          cube_copy_distributions(grid_, cube);
        }
        if (step + 1 < static_cast<Size>(num_steps)) {
          // Enable collide(step+1, n): it may only touch cubes whose
          // step-`step` state is fully retired.
          const Size next_parity = (step + 1) & 1;
          for (Size n : region_[cube]) {
            auto& counter = pending[next_parity * ncubes + n];
            LBMIB_MC_CHECK(mc::sched_point(mc::Op::kEdgeAcqRel, &counter);)
            LBMIB_RACE_CHECK(race::edge_acq_rel(&counter);)
            if (counter.fetch_sub(1, std::memory_order_acq_rel) == 1) {
              LBMIB_RACE_CHECK(race::edge_acquire(&counter);)
              counter.store(pending_init_[n], std::memory_order_relaxed);
              publish(static_cast<std::int64_t>((step + 1) * per_step + n) +
                      1);
            }
          }
        }
      }
    }
  });
  // The queue and counters live on this stack frame; drop their sync-var
  // clocks so a future allocation at the same address starts clean.
  LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active()) {
    for (const auto& q : queue) rd->forget_sync(&q);
    for (const auto& p : pending) rd->forget_sync(&p);
  })
  if (params_.fused_step) {
    // Reconcile the grid's bases with where the last step left the data:
    // step num_steps-1 wrote its result at parity p0 ^ (num_steps & 1).
    grid_.set_swap_parity(p0 != ((num_steps & 1) != 0));
  }
  steps_completed_ += num_steps;
  merge_thread_profiles();
  // Leave the per-step machinery armed for subsequent stepwise runs.
  arm_step();
}

void DataflowCubeSolver::run_loop(Index num_steps,
                                  const StepObserver& observer,
                                  Index observer_interval) {
  ThreadTeam team(params_.num_threads);
  team.run([&](int tid) {
    thread_entry(tid, num_steps, observer, observer_interval);
  });
  merge_thread_profiles();
}

void DataflowCubeSolver::step() { run_loop(1, nullptr, 1); }

void DataflowCubeSolver::run(Index num_steps, const StepObserver& observer,
                             Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  if (num_steps <= 0) return;
  // Fiber-free multi-step runs with no observer can overlap time steps
  // entirely (the paper's "overlapping different time steps" future
  // work); anything else uses the per-step pipeline.
  if (fiber_list_.empty() && !observer && num_steps > 1) {
    run_overlapped(num_steps);
    return;
  }
  run_loop(num_steps, observer, observer_interval);
}

void DataflowCubeSolver::snapshot_fluid(FluidGrid& out) const {
  grid_.to_planar(out);
}

}  // namespace lbmib
