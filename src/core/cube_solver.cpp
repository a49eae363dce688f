#include "core/cube_solver.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "core/instrument.hpp"
#include "cube/cube_kernels.hpp"
#include "ib/fiber_forces.hpp"
#include "lbm/boundary.hpp"
#include "obs/metrics.hpp"
#include "parallel/modelcheck.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {

namespace {

std::unique_ptr<Barrier> make_barrier(BarrierKind kind, int threads) {
  if (kind == BarrierKind::kSpin)
    return std::make_unique<SpinBarrier>(threads);
  return std::make_unique<BlockingBarrier>(threads);
}

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

CubeSolver::CubeSolver(const SimulationParams& params,
                       DistributionPolicy policy, BarrierKind barrier_kind)
    : CubeSolver(params, Schedule::kStatic, policy, barrier_kind) {}

CubeSolver::CubeSolver(const SimulationParams& params, Schedule schedule)
    : CubeSolver(params, schedule, DistributionPolicy::kBlock,
                 BarrierKind::kBlocking) {}

CubeSolver::CubeSolver(const SimulationParams& params, Schedule schedule,
                       DistributionPolicy policy, BarrierKind barrier_kind)
    : Solver(params),
      schedule_(schedule),
      grid_(params),
      mesh_(fitted_mesh(params.num_threads, grid_.cubes_x(),
                        grid_.cubes_y(), grid_.cubes_z())),
      dist_(grid_.cubes_x(), grid_.cubes_y(), grid_.cubes_z(), mesh_,
            policy),
      barrier_kind_(barrier_kind),
      barrier_(make_barrier(barrier_kind, params.num_threads)),
      bins_(structure_, dist_.owner_table(), params.num_threads,
            params.num_threads),
      marks_(bins_),
      owned_fibers_(static_cast<Size>(params.num_threads)) {
  finish_construction(policy);
}

CubeSolver::CubeSolver(const SimulationParams& params,
                       const MachineTopology& topology,
                       DistributionPolicy policy, BarrierKind barrier_kind)
    : Solver(params),
      grid_(params),
      mesh_(numa_hierarchical_mesh(topology, params.num_threads).mesh),
      dist_(make_numa_distribution(topology, params.num_threads,
                                   grid_.cubes_x(), grid_.cubes_y(),
                                   grid_.cubes_z(), policy)),
      barrier_kind_(barrier_kind),
      barrier_(make_barrier(barrier_kind, params.num_threads)),
      bins_(structure_, dist_.owner_table(), params.num_threads,
            params.num_threads),
      marks_(bins_),
      owned_fibers_(static_cast<Size>(params.num_threads)) {
  finish_construction(policy);
}

CubeSolver::~CubeSolver() {
  // Drop the queue's and counters' sync-var clocks so a future allocation
  // at the same address starts clean.
  LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active()) {
    for (const auto& q : queue_) rd->forget_sync(&q);
    for (const auto& p : pending_) rd->forget_sync(&p);
  })
}

void CubeSolver::finish_construction(DistributionPolicy policy) {
#if LBMIB_ACCESS_CHECK_ENABLED
  // Shadow the grid with its cube2thread image so every write hook can
  // verify ownership. Ownership is frozen here: any later drift between
  // the owner table and the checker's map is itself a bug the checker
  // will surface.
  if (schedule_ == Schedule::kStatic) {
    access_checker_ = std::make_unique<AccessChecker>(grid_.num_cubes(),
                                                      params_.num_threads);
    const std::span<const int> cube_owner = bins_.cube_owner();
    for (Size cube = 0; cube < grid_.num_cubes(); ++cube) {
      access_checker_->set_owner(cube, cube_owner[cube]);
    }
    grid_.attach_access_checker(access_checker_.get());
  }
#endif
  // Each thread's fiber list and cube list (bins_.owned_cubes) are
  // Algorithm 4's "if cube2thread(I,J,K) == tid" scans, hoisted out of
  // the time loop.
  const Index total_fibers = structure_num_fibers(structure_);
  Index global_fiber = 0;
  for (Size s = 0; s < structure_.size(); ++s) {
    for (Index f = 0; f < structure_[s].num_fibers(); ++f, ++global_fiber) {
      const int tid = fiber2thread(global_fiber, total_fibers,
                                   params_.num_threads, policy);
      owned_fibers_[static_cast<Size>(tid)].emplace_back(s, f);
    }
  }
  tasks_executed_.assign(static_cast<Size>(params_.num_threads), 0);
  swept_nodes_.assign(static_cast<Size>(params_.num_threads), 0);
  if (schedule_ == Schedule::kDataflow) {
    // Distinct streaming neighbourhoods. With periodic wrap on tiny grids
    // a neighbour may coincide with the cube itself or with another
    // offset, so deduplicate. The relation is symmetric, so region_[c] is
    // both "who c writes into" and "who must finish before c updates".
    const Size ncubes = grid_.num_cubes();
    region_.resize(ncubes);
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
    }
    // Four banks: [phase][parity].
    pending_ = std::vector<std::atomic<int>>(4 * ncubes);
    arm_counters();
    queue_ = std::vector<std::atomic<std::int64_t>>(
        2 * ncubes * static_cast<Size>(kMaxGraphSteps));
  }
  // Until the first step the force field holds the body force alone, so
  // no cube is marked; the moments are the initial ones.
  grid_.reset_forces(params_.body_force);
}

void CubeSolver::arm_counters() {
  const Size ncubes = grid_.num_cubes();
  for (Size i = 0; i < pending_.size(); ++i) {
    pending_[i].store(static_cast<int>(region_[i % ncubes].size()),
                      std::memory_order_relaxed);
  }
}

void CubeSolver::restore_fluid(const FluidGrid& fluid) {
  grid_.from_planar(fluid);
  marks_.mark_all();
  moments_stale_ = false;
}

void CubeSolver::arm_graph(Index graph_steps) {
  const Size ncubes = grid_.num_cubes();
  const Size slots = 2 * ncubes * static_cast<Size>(graph_steps);
  // Pre-fill the first ncubes slots with step 0's collide tasks; the rest
  // are filled as dependencies resolve.
  for (Size i = 0; i < slots; ++i) {
    queue_[i].store(i < ncubes ? encode_collide(i) : kEmptySlot,
                    std::memory_order_relaxed);
  }
  queue_head_.store(0, std::memory_order_relaxed);
  queue_tail_.store(ncubes, std::memory_order_relaxed);
}

void CubeSolver::count_down(std::atomic<int>& counter, Size n,
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
    counter.store(static_cast<int>(region_[n].size()),
                  std::memory_order_relaxed);
    const Size slot = queue_tail_.fetch_add(1, std::memory_order_relaxed);
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kEdgeRelease, &queue_[slot]);)
    LBMIB_RACE_CHECK(race::edge_release(&queue_[slot]);)
    queue_[slot].store(task, std::memory_order_release);
    LBMIB_MC_CHECK(mc::notify(&queue_[slot]);)
  }
}

std::int64_t CubeSolver::take_task(const std::atomic<std::int64_t>& slot) {
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
  // Order this thread after whoever published the slot (seeded collide
  // slots carry no edge; the spread-done barrier orders those).
  LBMIB_RACE_CHECK(race::edge_acquire(&slot);)
  return task;
}

Size CubeSolver::run_tasks(int tid, Index graph_steps) {
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  const Size ncubes = grid_.num_cubes();
  const Size total_tasks = 2 * ncubes * static_cast<Size>(graph_steps);
  // Fused pipeline: there is no per-step copy (and no quiescent point
  // inside a graph to flip the grid's bases at), so parity is tracked per
  // *step* and passed to the kernels explicitly — step t reads the field
  // that step t-1 wrote, at parity p0 ^ (t & 1). The task graph already
  // orders every access: collide(t, n) < update(t, n) < collide(t+1, m)
  // for every m with n in region(m), so step t's source planes are fully
  // read before collide(t+1) starts overwriting them. The move phase
  // reconciles the grid's bases once after the graph.
  const bool p0 = grid_.swap_parity();
  // Counted here and published once per graph: the per-thread counters
  // share a cache line.
  Size executed = 0;
  Size swept = 0;
  // Each task bills its own row; the slot-wait spin bills nothing.
  Size slot;
  while ((slot = queue_head_.fetch_add(1, std::memory_order_relaxed)) <
         total_tasks) {
    // No step number in a multi-step graph: a task's step is known only
    // once it is read.
    if (graph_steps > 1) sync_point("dataflow:overlapped-task", tid, -1);
    const std::int64_t task = take_task(queue_[slot]);
    ++executed;
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
      // The fused pipeline's kernel 7 only where kernel 8 reads it.
      if (!params_.fused_step || marks_.marked(cube)) {
        cube_update_velocity(grid_, cube, dst_base);
        swept += grid_.nodes_per_cube();
      }
      if (!params_.fused_step) cube_copy_distributions(grid_, cube);
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
  tasks_executed_[static_cast<Size>(tid)] += executed;
  LBMIB_TRACE_ON(if (obs::Tracer::active()) {
    obs::metric_dataflow_tasks().inc(static_cast<double>(executed));
  })
  return swept;
}

void CubeSolver::thread_entry(int tid, Index num_steps, Index max_graph,
                              Index steps_before,
                              const StepObserver& observer,
                              Index observer_interval) {
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  // Debug builds: bind this worker to the checker for the whole loop; the
  // binding resets the thread's phase automaton to kSpread, and each
  // barrier's sync point advances it to the phase the barrier opens.
  LBMIB_ACCESS_CHECK(std::optional<ScopedThreadBind> checker_bind;
                     if (access_checker_) {
                       checker_bind.emplace(*access_checker_, tid);
                     })
  AccessChecker* const checker = access_checker_.get();
  const std::span<const Size> my_cubes = bins_.owned_cubes(tid);
  const std::vector<std::pair<Size, Index>>& my_fibers =
      owned_fibers_[static_cast<Size>(tid)];
  // Kernel-7 nodes, published once after the loop.
  Size swept = 0;

  // Liveness: one sync point per phase per step plus a cancel poll at
  // the step boundary. The label names the sync point the thread is
  // about to enter, which is what a hang report shows for a thread that
  // never came out of it.
  for (Index step = 0; step < num_steps;) {
    // Steps of this iteration: one, or one overlapped task graph.
    const Index graph_steps = std::min(max_graph, num_steps - step);
    cancel_point("cube:step");
    sync_point("cube:step:start", tid, step);
    // Before any thread writes the fluid: the first barrier follows.
    if (tid == 0 && params_.fused_step) moments_stale_ = true;
    // One bar per thread per step (per graph) in the trace timeline;
    // kernel and barrier-wait spans nest inside it.
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(step));
    // --- 1st loop: fiber kernels 1-3 on owned fibers ---------------------
    {
      KernelScope scope(prof, Phase::kBending);
      for (const auto& [s, f] : my_fibers) {
        compute_bending_force(structure_[s], f, f + 1);
      }
    }
    {
      KernelScope scope(prof, Phase::kStretching);
      for (const auto& [s, f] : my_fibers) {
        compute_stretching_force(structure_[s], f, f + 1);
      }
    }
    {
      KernelScope scope(prof, Phase::kElastic);
      for (const auto& [s, f] : my_fibers) {
        compute_elastic_force(structure_[s], f, f + 1);
      }
    }
    {
      // Kernel 4's first half: bin this thread's fixed fiber block of
      // every sheet by the owners its supports reach.
      KernelScope scope(prof, Phase::kSpread);
      bins_.bin(structure_, grid_, tid);
    }
    // Extra barrier (see header comment): every fiber's elastic force and
    // every bin must be published before any thread spreads.
    sync_point("cube:barrier:spread", tid, step, *barrier_, checker,
               StepPhase::kCollideStream);

    // --- kernel 4, owner computes: reset the own cubes the last spread
    // wrote to the body force, then spread the fiber nodes binned to the
    // own cubes and mark the cubes written -------------------------------
    {
      KernelScope scope(prof, Phase::kSpread);
      cube_spread_force_owned(structure_, grid_, bins_, marks_, tid,
                              params_.body_force);
    }

    if (schedule_ == Schedule::kStatic) {
      // No barrier here: collision reads only its own cube's force, and
      // only this thread wrote it.

      // --- 2nd loop: collision + streaming per cube ----------------------
      if (params_.fused_step) {
        // One register-fused pass per cube (kernels 5+6).
        KernelScope scope(prof, Phase::kCollideStream);
        for (Size cube : my_cubes) {
          cube_collide_stream(grid_, params_.tau, cube, params_.simd_step,
                              mrt_.get());
        }
      } else {
        // Collide and stream interleave per cube here, so the trace gets
        // one combined span while the profiler still bills the two rows.
        LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                         phase_name(Phase::kCollideStream));
        for (Size cube : my_cubes) {
          {
            KernelProfiler::Scope collide(prof, Phase::kCollide);
            cube_collide(grid_, params_.tau, cube, mrt_.get());
          }
          KernelProfiler::Scope stream(prof, Phase::kStream);
          cube_stream(grid_, cube);
        }
      }
      sync_point("cube:barrier:collide", tid, step, *barrier_, checker,
                 StepPhase::kUpdate);  // paper barrier #1

      // --- 3rd loop: update velocity -------------------------------------
      {
        KernelScope scope(prof, Phase::kUpdateVelocity);
        if (uses_inlet_outlet(params_.boundary)) {
          for (Size cube : my_cubes) {
            cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube,
                                    grid_.df_new_slot_base());
          }
        }
        // The fused pipeline's kernel 7 only where kernel 8 reads it.
        const std::span<const std::uint32_t> marked = marks_.owned(tid);
        for (Size i = 0; i < my_cubes.size(); ++i) {
          if (params_.fused_step && marked[i] == 0) continue;
          cube_update_velocity(grid_, my_cubes[i]);
          swept += grid_.nodes_per_cube();
        }
      }
      sync_point("cube:barrier:update", tid, step, *barrier_, checker,
                 StepPhase::kMoveCopy);  // paper barrier #2
    } else {
      // --- kernels 5-7 (and 9) as the armed task graph ------------------
      // Any task may collide any cube: every spread first.
      sync_point("dataflow:barrier:spread", tid, step, *barrier_);
      sync_point("dataflow:task-loop", tid, step);
      swept += run_tasks(tid, graph_steps);
      // All velocities in place.
      sync_point("dataflow:barrier:tasks-done", tid, step, *barrier_);
    }

    // --- 4th loop: move owned fibers --------------------------------------
    {
      KernelScope scope(prof, Phase::kMoveFibers);
      for (const auto& [s, f] : my_fibers) {
        cube_move_fibers(structure_[s], grid_, f, f + 1);
      }
    }

    // --- 5th loop: kernel 9 -----------------------------------------------
    if (!params_.fused_step) {
      // The reference pipeline copies df_new back into df, own cubes only
      // (the dataflow update task copies its own cube).
      if (schedule_ == Schedule::kStatic) {
        KernelScope scope(prof, Phase::kCopyDf);
        for (Size cube : my_cubes) cube_copy_distributions(grid_, cube);
      }
    } else if (tid == 0 && graph_steps % 2 == 1) {
      // Kernel 9 as an O(1) parity flip, done once by thread 0. Step t
      // of a graph writes its result at parity p0 ^ (t & 1) ^ 1, so only
      // an odd step count flips. Legal anywhere inside the move+copy
      // phase: after the last fluid barrier no thread reads df/df_new
      // again this step (loop 4 reads only velocity slots, whose bases
      // never move), and the step-end barrier publishes the flip before
      // the next step's reads.
      KernelScope scope(prof, Phase::kSwapDf);
      grid_.swap_df_buffers();
    }
    const Index next = step + graph_steps;
    if (schedule_ == Schedule::kDataflow && tid == 0 && next < num_steps) {
      // Every thread left the task loop before the tasks-done barrier,
      // and the step-end barrier publishes the next graph.
      arm_graph(std::min(max_graph, num_steps - next));
    }
    sync_point("cube:barrier:step-end", tid, step, *barrier_, checker,
               StepPhase::kSpread);  // paper barrier #3 (end of step)

    if (tid == 0) steps_completed_ += graph_steps;
    step = next;
    if (observer && (steps_before + step) % observer_interval == 0) {
      if (tid == 0) observer(*this, steps_completed_ - 1);
      barrier_->arrive_and_wait();
    }
  }
  swept_nodes_[static_cast<Size>(tid)] += swept;
}

void CubeSolver::run_loop(Index num_steps, const StepObserver& observer,
                          Index observer_interval) {
  const Index steps_before = steps_completed_;
  // Only the dataflow schedule overlaps steps, and only where no fiber
  // phase and no observer needs the state between them.
  const Index max_graph =
      schedule_ == Schedule::kDataflow &&
              structure_num_fibers(structure_) == 0 && !observer
          ? kMaxGraphSteps
          : 1;
  if (schedule_ == Schedule::kDataflow) {
    arm_graph(std::min(max_graph, num_steps));
  }
  ThreadTeam team(params_.num_threads);
  try {
    team.run([&](int tid) {
      thread_entry(tid, num_steps, max_graph, steps_before, observer,
                   observer_interval);
    });
  } catch (...) {
    // The unwound team left the barrier poisoned (barrier.hpp) and the
    // task graph's counters part-way down.
    barrier_ = make_barrier(barrier_kind_, params_.num_threads);
    arm_counters();
    throw;
  }
  merge_thread_profiles();
}

void CubeSolver::step() { run_loop(1, nullptr, 1); }

void CubeSolver::run(Index num_steps, const StepObserver& observer,
                     Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  if (num_steps <= 0) return;
  run_loop(num_steps, observer, observer_interval);
}

void CubeSolver::snapshot_fluid(FluidGrid& out) const {
  // The stored moments are a function of df and the force, filled in on
  // read: settling them changes nothing a caller can observe.
  const_cast<CubeSolver*>(this)->settle_moments();
  grid_.to_planar(out);
}

void CubeSolver::settle_moments() {
  if (!moments_stale_) return;
  {
    KernelScope scope(thread_profiles_[0], Phase::kUpdateVelocity);
    cube_settle_moments(grid_);
  }
  settled_nodes_ += grid_.num_nodes();
  moments_stale_ = false;
  merge_thread_profiles();
}

double CubeSolver::update_velocity_nodes(Phase row) const {
  const Phase in_step = schedule_ == Schedule::kDataflow
                            ? Phase::kTaskUpdateCopy
                            : Phase::kUpdateVelocity;
  double nodes = 0.0;
  if (row == in_step) {
    for (const Size n : swept_nodes_) nodes += static_cast<double>(n);
  }
  if (row == Phase::kUpdateVelocity) {
    nodes += static_cast<double>(settled_nodes_);
  }
  return nodes;
}

}  // namespace lbmib
