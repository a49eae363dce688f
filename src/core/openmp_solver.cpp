#include "core/openmp_solver.hpp"

#include <omp.h>

#include "core/instrument.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "lbm/boundary.hpp"
#include "lbm/collision.hpp"
#include "lbm/fused.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/owned_box.hpp"
#include "lbm/streaming.hpp"

namespace lbmib {

OpenMPSolver::OpenMPSolver(const SimulationParams& params)
    : Solver(params), grid_(params) {}

namespace {

/// Static block partition of [0, count) for thread tid of nthreads.
struct Range {
  Index begin, end;
};
Range block_range(Index count, int tid, int nthreads) {
  return {count * tid / nthreads, count * (tid + 1) / nthreads};
}

}  // namespace

void OpenMPSolver::step() {
  // Liveness hooks live at the step boundary only: exceptions must not
  // escape an `#pragma omp parallel` structured block and libgomp's
  // barriers cannot poll a token, so cancellation cannot unwind from
  // *inside* the region. A worker wedged mid-region stops the master's
  // beat with it (the master waits at the region's implicit barrier),
  // so the watchdog still detects and reports the hang; the unwind
  // happens here once the region would have ended. See DESIGN.md §14.
  cancel_point("openmp:step");
  sync_point("openmp:step", 0, steps_completed_);
  const int nthreads = params_.num_threads;
  const Index nx = grid_.nx();
  const Size plane = static_cast<Size>(grid_.ny()) *
                     static_cast<Size>(grid_.nz());

#if LBMIB_RACE_DETECT_ENABLED
  // OpenMP's pool is opaque to the detector, so model the parallel
  // region as fork/join and wrap each `#pragma omp barrier` in the
  // detector's barrier protocol, keyed on the solver. The branch on
  // `race_detector` is uniform across the team, so every thread reaches
  // the same textual barrier.
  RaceDetector* race_detector = RaceDetector::active();
  const std::uint64_t race_token =
      race_detector != nullptr ? race_detector->fork() : 0;
#endif
  auto team_barrier = [&] {
#if LBMIB_RACE_DETECT_ENABLED
    if (race_detector != nullptr) {
      const std::uint64_t gen =
          race_detector->barrier_arrive(this, params_.num_threads);
#pragma omp barrier
      race_detector->barrier_leave(this, gen);
      return;
    }
#endif
#pragma omp barrier
  };

#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    KernelProfiler& prof = thread_profiles_[static_cast<Size>(tid)];
    // Per-thread step span: one bar per thread per step in the trace
    // timeline (OpenMP's worker threads get tracer tids on first span).
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(steps_completed_));
#if LBMIB_RACE_DETECT_ENABLED
    struct RaceWorkerScope {
      RaceDetector* rd;
      std::uint64_t token;
      RaceWorkerScope(RaceDetector* r, std::uint64_t t) : rd(r), token(t) {
        if (rd != nullptr) rd->worker_start(token);
      }
      ~RaceWorkerScope() {
        if (rd != nullptr) rd->worker_end(token);
      }
    } race_worker_scope(race_detector, race_token);
    race::context("openmp solver");
#endif
    const Range slabs = block_range(nx, tid, nthreads);
    const Size node_begin = static_cast<Size>(slabs.begin) * plane;
    const Size node_end = static_cast<Size>(slabs.end) * plane;
    const OwnedBox box = OwnedBox::x_slab(grid_, slabs.begin, slabs.end);
    // Per-sheet fiber ranges owned by this thread (Algorithm 3 style).
    auto my_fibers = [&](const FiberSheet& sheet) {
      return block_range(sheet.num_fibers(), tid, nthreads);
    };

    // --- IB related (Algorithm 3 style fiber partitioning) ---
    {
      KernelScope scope(prof, Phase::kBending);
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        compute_bending_force(sheet, r.begin, r.end);
      }
    }
    team_barrier();
    {
      KernelScope scope(prof, Phase::kStretching);
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        compute_stretching_force(sheet, r.begin, r.end);
      }
    }
    team_barrier();
    {
      KernelScope scope(prof, Phase::kElastic);
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        compute_elastic_force(sheet, r.begin, r.end);
      }
    }
    team_barrier();
    {
      // Reset this thread's slab of the force field (part of kernel 4's
      // cost, like the sequential program), then spread every fiber into
      // this slab only (owner computes). No other thread writes the slab,
      // so no barrier separates the two.
      KernelScope scope(prof, Phase::kSpread);
      for (Size node = node_begin; node < node_end; ++node) {
        grid_.fx(node) = params_.body_force.x;
        grid_.fy(node) = params_.body_force.y;
        grid_.fz(node) = params_.body_force.z;
      }
      LBMIB_RACE_CHECK(race::access_range(
          &grid_, static_cast<Size>(slabs.begin),
          static_cast<Size>(slabs.end), RaceField::kForce,
          RaceAccess::kWrite, "reset forces");)
      for (const FiberSheet& sheet : structure_) {
        spread_force(sheet, grid_, box, 0, sheet.num_fibers());
      }
    }
    team_barrier();

    // --- LBM related (Algorithm 2 style x-slab partitioning) ---
    // Fused pipeline: one pass over this thread's slabs that collides in
    // registers and pushes into df_new. No thread writes df, and each
    // df_new slot has a unique writer, so the collide/stream barrier of
    // the reference pipeline disappears along with the second traversal.
    // (The conditional barriers are legal: fused_step is uniform across
    // the team.)
    if (params_.fused_step) {
      KernelScope scope(prof, Phase::kCollideStream);
      fused_collide_stream_x_slab(grid_, params_.tau, mrt_.get(),
                                  slabs.begin, slabs.end, params_.simd_step,
                                  params_.tile_y);
    } else {
      {
        KernelScope scope(prof, Phase::kCollide);
        collide_range(grid_, params_.tau, node_begin, node_end, mrt_.get());
      }
      team_barrier();
      KernelScope scope(prof, Phase::kStream);
      stream_x_slab(grid_, slabs.begin, slabs.end);
    }
    team_barrier();

    // --- FSI coupling related ---
    {
      KernelScope scope(prof, Phase::kUpdateVelocity);
      if (uses_inlet_outlet(params_.boundary)) {
        apply_inlet_outlet(grid_, box, params_.inlet_velocity);
      }
      update_velocity_range(grid_, node_begin, node_end);
    }
    team_barrier();
    {
      KernelScope scope(prof, Phase::kMoveFibers);
      for (FiberSheet& sheet : structure_) {
        const Range r = my_fibers(sheet);
        move_fibers(sheet, grid_, r.begin, r.end);
      }
    }
    team_barrier();
    if (!params_.fused_step) {
      KernelScope scope(prof, Phase::kCopyDf);
      copy_distributions_range(grid_, node_begin, node_end);
    }
  }

#if LBMIB_RACE_DETECT_ENABLED
  if (race_detector != nullptr) race_detector->join(race_token);
#endif

  if (params_.fused_step) {
    // Kernel 9 as an O(1) swap, after the parallel region's implicit
    // barrier has published every thread's df_new writes. Charged to
    // thread 0's profile so the merge below still reports it.
    KernelScope scope(thread_profiles_.front(), Phase::kSwapDf);
    grid_.swap_buffers();
  }

  merge_thread_profiles();
  ++steps_completed_;
}

void OpenMPSolver::snapshot_fluid(FluidGrid& out) const {
  out.copy_from(grid_);
}

}  // namespace lbmib
