// Kernel 7: update_fluid_velocity.
//
// Computes macroscopic density and velocity from the *streamed*
// distributions (df_new) plus the half-force correction required by the
// Guo forcing scheme:
//   rho = sum_i g_i,     u = (sum_i c_i g_i + F/2) / rho.
// Solid wall nodes get rho = rho and u = 0 (no-slip).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace lbmib {

class FluidGrid;

/// Kernel 7 over `n` contiguous nodes of either layout (a planar node
/// range or one cube block), in lane blocks: rho and u from the streamed
/// planes planes[i][0..n) and the force runs fx/fy/fz. Nodes with
/// solid[l] != 0 get u = 0 and keep their rho.
void update_moments(const Real* const* planes, const std::uint8_t* solid,
                    const Real* fx, const Real* fy, const Real* fz,
                    Real* rho, Real* ux, Real* uy, Real* uz, Size n);

/// Update rho and u for every node in [begin, end) from df_new.
void update_velocity_range(FluidGrid& grid, Size begin, Size end);

}  // namespace lbmib
