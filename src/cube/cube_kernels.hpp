// Cube-local versions of the LBM-IB computational kernels (Algorithm 4).
//
// Every kernel takes a cube id and touches (almost) only that cube's
// contiguous block. Streaming writes into neighbour cubes' df_new slots,
// but each (direction, destination-node) pair has a unique source, so the
// phase is race-free under any cube partitioning; the barrier after it
// (Algorithm 4) publishes the values. Force spreading (kernel 4) comes in
// three flavours that differ only in who may write a cube: the paper's
// owner-locked spread, where any thread adds into any cube under the
// owner thread's lock; a single-writer spread; and the owner-computes
// spread both cube-solver schedules run, where each owner resets the
// cubes its previous spread wrote to the body force, walks only the
// fiber nodes binned to it (cube/spread_bins.hpp) and adds only into its
// own cubes, marking each one it writes, so no thread writes a foreign
// cube, no lock is taken and no add is atomic. All
// three and kernel 8 share one support walk, which resolves cube
// coordinates without dividing and adds each support column's z-targets
// as one run per cube (CubeGrid::add_force_run).
#pragma once

#include <span>

#include "common/types.hpp"
#include "common/vec3.hpp"
#include "cube/distribution.hpp"
#include "cube/spread_bins.hpp"
#include "parallel/spinlock.hpp"

namespace lbmib {

class CubeGrid;
class MrtOperator;

/// Kernel 5 on one cube, in place on df: MRT when `mrt` is non-null,
/// else BGK with Guo forcing at `tau` (the `(tau, mrt)` pair of
/// collide_node, lbm/collision.hpp).
void cube_collide(CubeGrid& grid, Real tau, Size cube,
                  const MrtOperator* mrt = nullptr);

/// Kernel 6 on one cube: push-stream df into df_new (own and neighbour
/// cubes), with half-way bounce-back at solid nodes and zeroed df_new
/// slots at solid sources. Every cube sweep streams through this one
/// push (see push_cube in the implementation).
void cube_stream(CubeGrid& grid, Size cube);

/// Fused kernels 5+6 on one cube (the params.fused_step pipeline): collide
/// every node of the cube into a thread-local scratch block of 19 k^3
/// reals with the same `(tau, mrt)` operator as cube_collide, then push
/// the block exactly as cube_stream pushes df, leaving df untouched so
/// kernel 9 becomes CubeGrid::swap_df_buffers. With `simd` the block
/// collides through the lane-block seam (fused_block); without it, through
/// collide_node per fluid node, which makes this bit-identical to
/// cube_collide + cube_stream. Every cube takes the same path whatever
/// solids it or its neighbours hold.
void cube_collide_stream(CubeGrid& grid, Real tau, Size cube,
                         bool simd = true, const MrtOperator* mrt = nullptr);

/// Explicit-parity overload for the dataflow schedule, whose task graph
/// tracks swap parity per *step* rather than on the grid: read df from
/// slot base `src_base`, write df_new at `dst_base` (each
/// CubeGrid::df_base_for of a captured parity).
void cube_collide_stream(CubeGrid& grid, Real tau, Size cube, Size src_base,
                         Size dst_base, bool simd = true,
                         const MrtOperator* mrt = nullptr);

/// Kernel 7 on one cube: macroscopic density/velocity from df_new + F/2,
/// through the same lane-block update_moments as the planar kernel.
/// Checked as an owner write of the update phase.
void cube_update_velocity(CubeGrid& grid, Size cube);

/// Explicit-parity overload: read the streamed field from `df_new_base`.
void cube_update_velocity(CubeGrid& grid, Size cube, Size df_new_base);

/// Kernel 7 on every cube from the present df (the streamed field once a
/// fused step has swapped), by one thread between steps: the cube
/// solver's settle on read (core/cube_solver.hpp). It writes every
/// cube's moments as no owner does, so like to_planar it carries no
/// access hook: a step observer may call it on a worker bound to the
/// access checker. No other thread may run a kernel meanwhile.
void cube_settle_moments(CubeGrid& grid);

/// Inlet/outlet pass (BoundaryType::kInletOutlet) for one cube, on the
/// streamed field at slot base `df_new_base` (the grid's
/// df_new_slot_base(), or CubeGrid::df_base_for of a captured parity):
/// if the cube touches x = 0, overwrite those nodes' streamed
/// distributions with the equilibrium of `inlet_velocity`; if it touches
/// x = nx-1, copy the upstream column's (zero-gradient outflow). No-op
/// for interior cubes. Must run after all streaming completes and before
/// cube_update_velocity (the solvers call it at the start of their
/// update phase).
void cube_apply_inlet_outlet(CubeGrid& grid, const Vec3& inlet_velocity,
                             Size cube, Size df_new_base);

/// Kernel 9 on one cube: copy df_new back into df (the reference,
/// unfused pipeline; the fused pipeline swaps instead).
void cube_copy_distributions(CubeGrid& grid, Size cube);

/// Kernel 4 for fibers [fiber_begin, fiber_end): spread elastic force into
/// the cube grid. Writes to a cube are guarded by the owning thread's lock
/// (`locks[dist.cube2thread(...)]`), so any number of threads may spread
/// concurrently.
void cube_spread_force(const FiberSheet& sheet, CubeGrid& grid,
                       const CubeDistribution& dist,
                       std::span<SpinLock> locks, Index fiber_begin,
                       Index fiber_end);

/// Single-writer variant (no locks) used by tests and the sequential path.
void cube_spread_force_unlocked(const FiberSheet& sheet, CubeGrid& grid,
                                Index fiber_begin, Index fiber_end);

/// Owner-computes variant, and kernel 4 of the cube solvers: set the
/// force of every cube `owner` owns (bins.owned_cubes(owner)) whose mark
/// is set back to `body_force` and clear its mark, then spread the fiber
/// nodes `bins` holds for `owner`, adding only the contributions that
/// land in those cubes and marking each cube it adds into. Once every
/// fiber force and bin is published, every owner may run this at the
/// same time without locks: each cube and its mark have one writer, and
/// each fluid node sums its contributions in the same order as
/// cube_spread_force_unlocked over every fiber of every sheet. So when
/// every owned cube outside the marked ones holds exactly `body_force`
/// (as the previous call leaves them), the result is bit-identical to a
/// body-force reset plus that spread whatever the thread count or
/// ownership, and afterwards the marks name exactly the cubes written.
void cube_spread_force_owned(const Structure& structure, CubeGrid& grid,
                             const SpreadBins& bins, SpreadMarks& marks,
                             int owner, const Vec3& body_force);

/// Kernel 8 for fibers [fiber_begin, fiber_end): interpolate velocity from
/// the cube grid and advance fiber positions (dt = 1).
void cube_move_fibers(FiberSheet& sheet, const CubeGrid& grid,
                      Index fiber_begin, Index fiber_end, Real dt = 1.0);

/// Velocity interpolation at one Lagrangian point from cube storage.
Vec3 cube_interpolate_velocity(const CubeGrid& grid, const Vec3& pos);

}  // namespace lbmib
