#include "core/sequential_solver.hpp"

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

SequentialSolver::SequentialSolver(const SimulationParams& params)
    : Solver(params), grid_(params) {
  thread_profiles_.resize(1);  // one stepping thread, whatever num_threads
}

void SequentialSolver::step() {
  // Step boundary = the sequential solver's only cancellation point and
  // heartbeat (kernels are short; a hung *sequential* step means a hung
  // kernel, which the last-beat label narrows to this step).
  cancel_point("sequential:step");
  sync_point("sequential:step", 0, steps_completed_);
  KernelProfiler& prof = thread_profiles_.front();
  const Size n = grid_.num_nodes();
  LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                   static_cast<std::int64_t>(steps_completed_));

  // --- IB related (kernels 1-4 over every sheet of the structure) ---
  {
    KernelScope scope(prof, Phase::kBending);
    for (FiberSheet& sheet : structure_) {
      compute_bending_force(sheet, 0, sheet.num_fibers());
    }
  }
  {
    KernelScope scope(prof, Phase::kStretching);
    for (FiberSheet& sheet : structure_) {
      compute_stretching_force(sheet, 0, sheet.num_fibers());
    }
  }
  {
    KernelScope scope(prof, Phase::kElastic);
    for (FiberSheet& sheet : structure_) {
      compute_elastic_force(sheet, 0, sheet.num_fibers());
    }
  }
  {
    KernelScope scope(prof, Phase::kSpread);
    grid_.reset_forces(params_.body_force);
    for (const FiberSheet& sheet : structure_) {
      spread_force(sheet, grid_, 0, sheet.num_fibers());
    }
  }

  // --- LBM related ---
  if (params_.fused_step) {
    // Kernels 5+6 in one pass; the collide_stream row bills kernel 5
    // (there is no separate streaming traversal to time).
    KernelScope scope(prof, Phase::kCollideStream);
    fused_collide_stream_x_slab(grid_, params_.tau, mrt_.get(), 0,
                                grid_.nx(), params_.simd_step,
                                params_.tile_y);
  } else {
    {
      KernelScope scope(prof, Phase::kCollide);
      collide_range(grid_, params_.tau, 0, n, mrt_.get());
    }
    {
      KernelScope scope(prof, Phase::kStream);
      stream_x_slab(grid_, 0, grid_.nx());
    }
  }

  // --- FSI coupling related ---
  {
    KernelScope scope(prof, Phase::kUpdateVelocity);
    if (uses_inlet_outlet(params_.boundary)) {
      apply_inlet_outlet(grid_, OwnedBox::whole(grid_),
                         params_.inlet_velocity);
    }
    update_velocity_range(grid_, 0, n);
  }
  {
    KernelScope scope(prof, Phase::kMoveFibers);
    for (FiberSheet& sheet : structure_) {
      move_fibers(sheet, grid_, 0, sheet.num_fibers());
    }
  }
  {
    // Kernel 9: O(1) swap under the fused pipeline, 19-plane copy under
    // the reference pipeline — both rows bill kernel 9, so Table 1
    // reports how much of the step "kernel 9" costs.
    KernelScope scope(prof,
                      params_.fused_step ? Phase::kSwapDf : Phase::kCopyDf);
    if (params_.fused_step) {
      grid_.swap_buffers();
    } else {
      copy_distributions_range(grid_, 0, n);
    }
  }

  ++steps_completed_;
  merge_thread_profiles();
}

void SequentialSolver::snapshot_fluid(FluidGrid& out) const {
  out.copy_from(grid_);
}

}  // namespace lbmib
