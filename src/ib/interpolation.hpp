// Kernel 8: move_fibers.
//
// The structure moves with the local fluid: each fiber node's velocity is
// interpolated from the 4x4x4 influential domain with the same smoothed
// delta used for spreading,
//     U(X_l) = sum_x u(x) delta_h(x - X_l) h^3,   h = 1,
// and the position advances by forward Euler (dt = 1 in lattice units).
// Pinned nodes (PinMode) do not move.
#pragma once

#include "common/types.hpp"
#include "common/vec3.hpp"

namespace lbmib {

class FiberSheet;
class FluidGrid;
struct OwnedBox;

/// Interpolate fluid velocity at an arbitrary Lagrangian position over
/// the support nodes `box` (lbm/owned_box.hpp) owns, in the whole-grid
/// form's order: a box holding the whole support gives exactly the
/// whole-grid value, one the support misses gives zero, and a distributed
/// rank's tile gives its partial sum.
Vec3 interpolate_velocity(const FluidGrid& grid, const OwnedBox& box,
                          const Vec3& pos);

/// Whole-grid form: the box is every column of `grid`.
Vec3 interpolate_velocity(const FluidGrid& grid, const Vec3& pos);

/// Kernel 8 for fibers [fiber_begin, fiber_end): set each node's position
/// to X + dt * U(X). Reads fluid velocity only; writes only fiber state,
/// so fiber-partitioned parallel execution is race-free.
void move_fibers(FiberSheet& sheet, const FluidGrid& grid,
                 Index fiber_begin, Index fiber_end, Real dt = 1.0);

}  // namespace lbmib
