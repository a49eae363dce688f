// Boundary conditions for the fluid domain.
//
// The library supports a fully periodic box and the paper's "3D tunnel"
// (Figure 7): periodic along the flow direction x, no-slip walls (half-way
// bounce-back) at the y and z extremes, with an optional constant body
// force driving the flow.
#pragma once

#include "common/params.hpp"

namespace lbmib {

class FluidGrid;
struct OwnedBox;

/// Mark wall nodes as solid according to `type`. kPeriodic marks nothing;
/// kChannel and kInletOutlet mark the y = 0, y = ny-1, z = 0, z = nz-1
/// planes.
void apply_boundary_mask(FluidGrid& grid, BoundaryType type);

/// Single source of truth for the solid mask: true if global node
/// (gx, gy, gz) is a wall of the configured boundary type or lies inside
/// one of the rigid obstacles. Used by every grid/solver flavour so their
/// masks cannot diverge.
bool is_boundary_solid(const SimulationParams& params, Index gx, Index gy,
                       Index gz);

/// Apply is_boundary_solid() over a whole planar grid.
void apply_params_mask(FluidGrid& grid, const SimulationParams& params);

/// Number of solid nodes the mask would create (used by tests/benches).
Size count_solid_nodes(const FluidGrid& grid);

/// True if `type` needs the inlet/outlet pass after streaming.
inline bool uses_inlet_outlet(BoundaryType type) {
  return type == BoundaryType::kInletOutlet;
}

/// Post-streaming inlet/outlet pass (kInletOutlet): overwrite the x = 0
/// column of df_new with the equilibrium of `inlet_velocity` at the
/// density of the x = 1 column, and the x = nx-1 column with the
/// equilibrium at unit density of the x = nx-2 column's velocity
/// (first-order outflow). Runs before update_fluid_velocity so kernel 7
/// publishes consistent macroscopic values. Rewrites only the boundary
/// nodes `box` owns (lbm/owned_box.hpp), so each has a unique writer
/// whether the box is the whole grid, an x-slab or a ghosted tile; the
/// upstream column it reads must be stored in the grid too.
void apply_inlet_outlet(FluidGrid& grid, const OwnedBox& box,
                        const Vec3& inlet_velocity);
// (The cube-layout version lives in cube/cube_kernels.hpp to keep the
// lbm -> cube layering acyclic.)

}  // namespace lbmib
