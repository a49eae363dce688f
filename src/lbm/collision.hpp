// Kernel 5: compute_fluid_collision.
//
// BGK single-relaxation-time collision with the Guo et al. (2002) forcing
// term, or the MRT operator of lbm/mrt.hpp, applied in place to the
// present distribution buffer. Every kernel-5 entry point names its
// operator as a `(tau, mrt)` pair: MRT when `mrt` is non-null, BGK at
// `tau` otherwise. collide_node is the one per-node seam that makes that
// choice; fused_block (simd_kernels.hpp) is its lane-block twin. The
// kernel is expressed over a half-open node range so the sequential
// solver passes [0, n), the OpenMP solver passes per-thread x-slabs, and
// the cube solver reuses the same per-node seam per cube.
#pragma once

#include "common/types.hpp"
#include "common/vec3.hpp"

namespace lbmib {

class FluidGrid;
class MrtOperator;

/// Collide every non-solid node in [begin, end) (MRT when `mrt` is
/// non-null, else BGK at `tau`).
/// The velocity used in the equilibrium includes the half-force shift
/// u = (sum_i c_i g_i + F/2) / rho, which makes the scheme second order in
/// the presence of the spread elastic force.
void collide_range(FluidGrid& grid, Real tau, Size begin, Size end,
                   const MrtOperator* mrt = nullptr);

/// BGK + Guo collision of one node's 19 distribution values held in a
/// contiguous local array.
void collide_node_array(Real* g, Real tau, const Vec3& force);

/// Collide one node's 19 values in place: MrtOperator::collide_node when
/// `mrt` is non-null, collide_node_array at `tau` otherwise. The reference
/// kernels gather into a local array and call this; so do the fused
/// kernels' scalar paths, which makes the two pipelines bit-identical.
void collide_node(Real* g, Real tau, const MrtOperator* mrt,
                  const Vec3& force);

}  // namespace lbmib
