#include "core/cube_solver.hpp"

#include "common/error.hpp"
#include "core/instrument.hpp"
#include "cube/cube_kernels.hpp"
#include "ib/fiber_forces.hpp"
#include "lbm/boundary.hpp"
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
      bins_(structure_, dist_.owner_table(), params.num_threads,
            params.num_threads),
      owned_cubes_(static_cast<Size>(params.num_threads)),
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
      barrier_(make_barrier(barrier_kind, params.num_threads)),
      bins_(structure_, dist_.owner_table(), params.num_threads,
            params.num_threads),
      owned_cubes_(static_cast<Size>(params.num_threads)),
      owned_fibers_(static_cast<Size>(params.num_threads)) {
  finish_construction(policy);
}

void CubeSolver::finish_construction(DistributionPolicy policy) {
  // Precompute the cube -> owner table and each thread's cube and fiber
  // lists. Equivalent to the "if cube2thread(I,J,K) == tid" scan in
  // Algorithm 4, hoisted out of the time loop.
  const std::span<const int> cube_owner = bins_.cube_owner();
  for (Size cube = 0; cube < cube_owner.size(); ++cube) {
    owned_cubes_[static_cast<Size>(cube_owner[cube])].push_back(cube);
  }
#if LBMIB_ACCESS_CHECK_ENABLED
  // Shadow the grid with its cube2thread image so every write hook can
  // verify ownership. Ownership is frozen here: any later drift between
  // the owner table and the checker's map is itself a bug the checker
  // will surface.
  access_checker_ =
      std::make_unique<AccessChecker>(grid_.num_cubes(), params_.num_threads);
  for (Size cube = 0; cube < grid_.num_cubes(); ++cube) {
    access_checker_->set_owner(cube, cube_owner[cube]);
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

void CubeSolver::thread_entry(int tid, Index num_steps, Index steps_before,
                              const StepObserver& observer,
                              Index observer_interval) {
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
  // Debug builds: bind this worker to the checker for the whole loop; the
  // binding resets the thread's phase automaton to kSpread, and each
  // barrier's sync point advances it to the phase the barrier opens.
  LBMIB_ACCESS_CHECK(ScopedThreadBind checker_bind(*access_checker_, tid);)
  AccessChecker* const checker = access_checker_.get();
  const std::vector<Size>& my_cubes = owned_cubes_[static_cast<Size>(tid)];
  const std::vector<std::pair<Size, Index>>& my_fibers =
      owned_fibers_[static_cast<Size>(tid)];

  // Liveness: one sync point per phase per step plus a cancel poll at
  // the step boundary. The label names the sync point the thread is
  // about to enter, which is what a hang report shows for a thread that
  // never came out of it.
  for (Index step = 0; step < num_steps; ++step) {
    cancel_point("cube:step");
    sync_point("cube:step:start", tid, step);
    // One bar per thread per step in the trace timeline; kernel and
    // barrier-wait spans nest inside it.
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

    // --- kernel 4, owner computes: binned fiber nodes, own cubes only ----
    {
      KernelScope scope(prof, Phase::kSpread);
      cube_spread_force_owned(structure_, grid_, bins_, tid);
    }
    // No barrier here: collision reads only its own cube's force, and only
    // this thread wrote it.

    // --- 2nd loop: collision + streaming per cube ------------------------
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

    // --- 3rd loop: update velocity ---------------------------------------
    {
      KernelScope scope(prof, Phase::kUpdateVelocity);
      if (uses_inlet_outlet(params_.boundary)) {
        for (Size cube : my_cubes) {
          cube_apply_inlet_outlet(grid_, params_.inlet_velocity, cube);
        }
      }
      for (Size cube : my_cubes) cube_update_velocity(grid_, cube);
    }
    sync_point("cube:barrier:update", tid, step, *barrier_, checker,
               StepPhase::kMoveCopy);  // paper barrier #2

    // --- 4th loop: move owned fibers --------------------------------------
    {
      KernelScope scope(prof, Phase::kMoveFibers);
      for (const auto& [s, f] : my_fibers) {
        cube_move_fibers(structure_[s], grid_, f, f + 1);
      }
    }

    // --- 5th loop: kernel 9, and reset forces for the next step's
    // spreading (own cubes only, so no synchronization needed) -------------
    {
      // Under the fused pipeline no distributions are copied here — the
      // loop only resets forces — so its row is reset_forces, not
      // copy_df, which the roofline would charge the 38-plane copy.
      KernelScope scope(prof, params_.fused_step ? Phase::kResetForces
                                                 : Phase::kCopyDf);
      for (Size cube : my_cubes) {
        if (!params_.fused_step) cube_copy_distributions(grid_, cube);
        grid_.reset_forces(cube, params_.body_force);
      }
    }
    if (params_.fused_step && tid == 0) {
      // Kernel 9 as an O(1) parity flip, done once by thread 0. Legal
      // anywhere inside the move+copy phase: after barrier #2 no thread
      // reads df/df_new again this step (loops 4/5 touch only
      // velocity/force slots, whose bases never move), and barrier #3
      // publishes the flip before the next step's reads.
      KernelScope scope(prof, Phase::kSwapDf);
      grid_.swap_df_buffers();
    }
    sync_point("cube:barrier:step-end", tid, step, *barrier_, checker,
               StepPhase::kSpread);  // paper barrier #3 (end of step)

    if (tid == 0) ++steps_completed_;
    if (observer && (steps_before + step + 1) % observer_interval == 0) {
      if (tid == 0) observer(*this, steps_completed_ - 1);
      barrier_->arrive_and_wait();
    }
  }
}

void CubeSolver::run_loop(Index num_steps, const StepObserver& observer,
                          Index observer_interval) {
  const Index steps_before = steps_completed_;
  ThreadTeam team(params_.num_threads);
  team.run([&](int tid) {
    thread_entry(tid, num_steps, steps_before, observer, observer_interval);
  });
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
  grid_.to_planar(out);
}

}  // namespace lbmib
