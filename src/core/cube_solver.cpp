#include "core/cube_solver.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "cube/cube_kernels.hpp"
#include "ib/fiber_forces.hpp"
#include "lbm/boundary.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/chaos.hpp"
#include "parallel/race_detector.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {

namespace {

std::unique_ptr<Barrier> make_barrier(BarrierKind kind, int threads) {
  if (kind == BarrierKind::kSpin)
    return std::make_unique<SpinBarrier>(threads);
  return std::make_unique<BlockingBarrier>(threads);
}

}  // namespace

CubeSolver::CubeSolver(const SimulationParams& params,
                       DistributionPolicy policy, BarrierKind barrier_kind)
    : Solver(params),
      grid_(params),
      mesh_(fitted_mesh(params.num_threads, grid_.cubes_x(),
                        grid_.cubes_y(), grid_.cubes_z())),
      dist_(grid_.cubes_x(), grid_.cubes_y(), grid_.cubes_z(), mesh_,
            policy),
      barrier_(make_barrier(barrier_kind, params.num_threads)),
      owned_cubes_(static_cast<Size>(params.num_threads)),
      owned_fibers_(static_cast<Size>(params.num_threads)),
      thread_profiles_(static_cast<Size>(params.num_threads)) {
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
      barrier_(make_barrier(barrier_kind, params.num_threads)),
      owned_cubes_(static_cast<Size>(params.num_threads)),
      owned_fibers_(static_cast<Size>(params.num_threads)),
      thread_profiles_(static_cast<Size>(params.num_threads)) {
  finish_construction(policy);
}

void CubeSolver::finish_construction(DistributionPolicy policy) {
  // Precompute the cube -> owner table and each thread's cube and fiber
  // lists. Equivalent to the "if cube2thread(I,J,K) == tid" scan in
  // Algorithm 4, hoisted out of the time loop.
  cube_owner_.resize(grid_.num_cubes());
  for (Index cx = 0; cx < grid_.cubes_x(); ++cx) {
    for (Index cy = 0; cy < grid_.cubes_y(); ++cy) {
      for (Index cz = 0; cz < grid_.cubes_z(); ++cz) {
        const int tid = dist_.cube2thread(cx, cy, cz);
        const Size cube = grid_.cube_id(cx, cy, cz);
        cube_owner_[cube] = tid;
        owned_cubes_[static_cast<Size>(tid)].push_back(cube);
      }
    }
  }
#if LBMIB_ACCESS_CHECK_ENABLED
  // Shadow the grid with its cube2thread image so every write hook can
  // verify ownership. Ownership is frozen here: any later drift between
  // the owner table and the checker's map is itself a bug the checker
  // will surface.
  access_checker_ =
      std::make_unique<AccessChecker>(grid_.num_cubes(), params_.num_threads);
  for (Size cube = 0; cube < grid_.num_cubes(); ++cube) {
    access_checker_->set_owner(cube, cube_owner_[cube]);
  }
  grid_.attach_access_checker(access_checker_.get());
#endif
  const Index total_fibers = structure_num_fibers(structure_);
  Index global_fiber = 0;
  for (Size s = 0; s < structure_.size(); ++s) {
    for (Index f = 0; f < structure_[s].num_fibers(); ++f, ++global_fiber) {
      const int tid = fiber2thread(global_fiber, total_fibers,
                                   params_.num_threads, policy);
      owned_fibers_[static_cast<Size>(tid)].emplace_back(s, f);
    }
  }
  // The constant body force must be present before the first collision.
  grid_.reset_forces(params_.body_force);
}

void CubeSolver::thread_entry(int tid, Index num_steps,
                              const StepObserver& observer,
                              Index observer_interval) {
  using Clock = std::chrono::steady_clock;
  auto seconds_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  // Debug builds: bind this worker to the checker for the whole loop; the
  // binding resets the thread's phase automaton to kSpread.
  LBMIB_ACCESS_CHECK(ScopedThreadBind checker_bind(*access_checker_, tid);)
  const std::vector<Size>& my_cubes = owned_cubes_[static_cast<Size>(tid)];
  const std::vector<std::pair<Size, Index>>& my_fibers =
      owned_fibers_[static_cast<Size>(tid)];

  // Liveness: one heartbeat per phase per step plus a cancel poll at
  // the step boundary. The beat label names the sync point the thread
  // is about to enter, which is what a hang report shows for a thread
  // that never came out of it.
  ProgressBoard& board = ProgressBoard::global();

  for (Index step = 0; step < num_steps; ++step) {
    cancel_point("cube:step");
    board.beat("cube:step:start");
    // One bar per thread per step in the trace timeline; kernel and
    // barrier-wait spans nest inside it.
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(step));
    // --- 1st loop: fiber kernels 1-3 on owned fibers ---------------------
    LBMIB_RACE_CHECK(race::context("cube solver: fiber-force phase");)
    {
      auto t0 = Clock::now();
      {
        LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                         kernel_short_name(Kernel::kBendingForce));
        for (const auto& [s, f] : my_fibers) {
          compute_bending_force(structure_[s], f, f + 1);
        }
      }
      auto t1 = Clock::now();
      {
        LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                         kernel_short_name(Kernel::kStretchingForce));
        for (const auto& [s, f] : my_fibers) {
          compute_stretching_force(structure_[s], f, f + 1);
        }
      }
      auto t2 = Clock::now();
      {
        LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                         kernel_short_name(Kernel::kElasticForce));
        for (const auto& [s, f] : my_fibers) {
          compute_elastic_force(structure_[s], f, f + 1);
        }
      }
      auto t3 = Clock::now();
      prof.add(Kernel::kBendingForce, seconds_between(t0, t1));
      prof.add(Kernel::kStretchingForce, seconds_between(t1, t2));
      prof.add(Kernel::kElasticForce, seconds_between(t2, t3));
    }
    // Extra barrier (see header comment): every fiber's elastic force must
    // be published before any thread spreads it.
    board.beat("cube:barrier:spread");
    if (chaos::enabled()) chaos::sync_point("cube:barrier:spread", tid, step);
    barrier_->arrive_and_wait();
    LBMIB_ACCESS_CHECK(
        access_checker_->advance_phase(StepPhase::kCollideStream);)
    LBMIB_RACE_CHECK(
        race::context("cube solver: spread+collide+stream phase");)

    // --- kernel 4, owner computes: every fiber node, own cubes only ------
    {
      LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                       kernel_short_name(Kernel::kSpreadForce));
      auto t0 = Clock::now();
      for (const FiberSheet& sheet : structure_) {
        cube_spread_force_owned(sheet, grid_, cube_owner_, tid);
      }
      prof.add(Kernel::kSpreadForce, seconds_between(t0, Clock::now()));
    }
    // No barrier here: collision reads only its own cube's force, and only
    // this thread wrote it.

    // --- 2nd loop: collision + streaming per cube ------------------------
    if (params_.fused_step) {
      // One register-fused pass per cube (kernels 5+6); the whole sweep is
      // charged to the collision bucket — there is no second traversal
      // left to time as "streaming".
      LBMIB_TRACE_SPAN(obs::SpanCat::kKernel, "collide_stream");
      auto t0 = Clock::now();
      for (Size cube : my_cubes) {
        if (mrt_) {
          cube_mrt_collide_stream(grid_, *mrt_, cube, params_.simd_step);
        } else {
          cube_collide_stream(grid_, params_.tau, cube,
                              params_.simd_step);
        }
      }
      prof.add(Kernel::kCollision, seconds_between(t0, Clock::now()));
    } else {
      // Collide and stream interleave per cube here, so the trace gets
      // one combined span; the profiler still splits the buckets.
      LBMIB_TRACE_SPAN(obs::SpanCat::kKernel, "collide_stream");
      double collide_s = 0.0, stream_s = 0.0;
      for (Size cube : my_cubes) {
        auto t0 = Clock::now();
        if (mrt_) {
          cube_mrt_collide(grid_, *mrt_, cube);
        } else {
          cube_collide(grid_, params_.tau, cube);
        }
        auto t1 = Clock::now();
        cube_stream(grid_, cube);
        auto t2 = Clock::now();
        collide_s += seconds_between(t0, t1);
        stream_s += seconds_between(t1, t2);
      }
      prof.add(Kernel::kCollision, collide_s);
      prof.add(Kernel::kStreaming, stream_s);
    }
    board.beat("cube:barrier:collide");
    if (chaos::enabled()) chaos::sync_point("cube:barrier:collide", tid, step);
    barrier_->arrive_and_wait();  // paper barrier #1
    LBMIB_ACCESS_CHECK(access_checker_->advance_phase(StepPhase::kUpdate);)
    LBMIB_RACE_CHECK(race::context("cube solver: update phase");)

    // --- 3rd loop: update velocity ---------------------------------------
    {
      LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                       kernel_short_name(Kernel::kUpdateVelocity));
      auto t0 = Clock::now();
      if (uses_inlet_outlet(params_.boundary)) {
        for (Size cube : my_cubes) {
          cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube);
        }
      }
      for (Size cube : my_cubes) cube_update_velocity(grid_, cube);
      prof.add(Kernel::kUpdateVelocity, seconds_between(t0, Clock::now()));
    }
    board.beat("cube:barrier:update");
    if (chaos::enabled()) chaos::sync_point("cube:barrier:update", tid, step);
    barrier_->arrive_and_wait();  // paper barrier #2
    LBMIB_ACCESS_CHECK(access_checker_->advance_phase(StepPhase::kMoveCopy);)
    LBMIB_RACE_CHECK(race::context("cube solver: move+copy phase");)

    // --- 4th loop: move owned fibers --------------------------------------
    {
      LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                       kernel_short_name(Kernel::kMoveFibers));
      auto t0 = Clock::now();
      for (const auto& [s, f] : my_fibers) {
        cube_move_fibers(structure_[s], grid_, f, f + 1);
      }
      prof.add(Kernel::kMoveFibers, seconds_between(t0, Clock::now()));
    }

    // --- 5th loop: kernel 9, and reset forces for the next step's
    // spreading (own cubes only, so no synchronization needed) -------------
    {
      // Under the fused pipeline no distributions are copied here — the
      // loop only resets forces — so don't record it as copy_df, where
      // the roofline would charge it the 38-plane copy traffic.
      LBMIB_TRACE_SPAN(obs::SpanCat::kKernel,
                       params_.fused_step
                           ? "reset_forces"
                           : kernel_short_name(Kernel::kCopyDistribution));
      auto t0 = Clock::now();
      for (Size cube : my_cubes) {
        if (!params_.fused_step) cube_copy_distributions(grid_, cube);
        // The reset below writes the force slots directly, bypassing the
        // hooked add_force accessors.
        LBMIB_RACE_CHECK(race::access(&grid_, cube, RaceField::kForce,
                                      RaceAccess::kWrite, "reset forces");)
        Real* fx = grid_.slot(cube, CubeGrid::kFxSlot);
        Real* fy = grid_.slot(cube, CubeGrid::kFySlot);
        Real* fz = grid_.slot(cube, CubeGrid::kFzSlot);
        for (Size local = 0; local < grid_.nodes_per_cube(); ++local) {
          fx[local] = params_.body_force.x;
          fy[local] = params_.body_force.y;
          fz[local] = params_.body_force.z;
        }
      }
      if (params_.fused_step && tid == 0) {
        // Kernel 9 as an O(1) parity flip, done once by thread 0. Legal
        // anywhere inside the move+copy phase: after barrier #2 no thread
        // reads df/df_new again this step (loops 4/5 touch only
        // velocity/force slots, whose bases never move), and barrier #3
        // publishes the flip before the next step's reads.
        LBMIB_TRACE_SPAN(obs::SpanCat::kKernel, "swap_df");
        grid_.swap_df_buffers();
      }
      prof.add(Kernel::kCopyDistribution, seconds_between(t0, Clock::now()));
    }
    board.beat("cube:barrier:step-end");
    if (chaos::enabled()) {
      chaos::sync_point("cube:barrier:step-end", tid, step);
    }
    barrier_->arrive_and_wait();  // paper barrier #3 (end of step)
    LBMIB_ACCESS_CHECK(access_checker_->advance_phase(StepPhase::kSpread);)

    if (tid == 0) ++steps_completed_;
    if (observer && ((step + 1) % observer_interval == 0)) {
      if (tid == 0) observer(*this, steps_completed_ - 1);
      barrier_->arrive_and_wait();
    }
  }
}

void CubeSolver::run_loop(Index num_steps, const StepObserver& observer,
                          Index observer_interval) {
  ThreadTeam team(params_.num_threads);
  team.run([&](int tid) {
    thread_entry(tid, num_steps, observer, observer_interval);
  });

  // Fold per-thread times into the aggregate profiler: charge the slowest
  // thread per kernel (wall time of that phase).
  for (int k = 0; k < kNumKernels; ++k) {
    double max_time = 0.0;
    for (const KernelProfiler& p : thread_profiles_) {
      max_time = std::max(max_time, p.seconds(static_cast<Kernel>(k)));
    }
    profiler_.add(static_cast<Kernel>(k),
                  max_time - profiler_merge_mark_[static_cast<Size>(k)]);
    profiler_merge_mark_[static_cast<Size>(k)] = max_time;
  }
}

void CubeSolver::step() { run_loop(1, nullptr, 1); }

void CubeSolver::run(Index num_steps, const StepObserver& observer,
                     Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  if (num_steps <= 0) return;
  run_loop(num_steps, observer, observer_interval);
}

void CubeSolver::snapshot_fluid(FluidGrid& out) const {
  grid_.to_planar(out);
}

}  // namespace lbmib
