// Kernel 4: spread_force_from_fibers_to_fluid.
//
// Each fiber node exerts its elastic force onto the fluid nodes of its
// influential domain — the 4x4x4 block of lattice nodes within the Peskin
// 4-point kernel's support — weighted by the tensor-product smoothed delta
// and the node's Lagrangian patch area:
//     f(x) += F_l * delta_h(x - X_l) * dA_l.
//
// Two accumulation flavours are provided:
//   * spread_force:        plain adds — for a single writer (sequential),
//   * spread_force_atomic: std::atomic_ref adds — for concurrent writers
//     whose influential domains may overlap (OpenMP solver).
// The cube-layout flavours live in cube/cube_kernels.hpp: Algorithm 4's
// per-owner-locked spread, and the owner-computes spread the cube solver
// runs, where each thread adds only what lands in its own cubes.
#pragma once

#include "common/types.hpp"
#include "common/vec3.hpp"

namespace lbmib {

class FiberSheet;
class FluidGrid;

/// Influential domain of a point: the 4 lattice indices per axis that the
/// 4-point kernel reaches, with the per-axis weights.
struct InfluenceDomain {
  Index base[3];    ///< first lattice index per axis (unwrapped)
  Real wx[4];       ///< phi4 weights along x
  Real wy[4];
  Real wz[4];
};

/// First lattice index (unwrapped) of the influential domain along an
/// axis where the point sits at `coord`: floor(coord) - 1. Non-finite or
/// astronomically large coordinates clamp to 0 so the index arithmetic
/// stays defined. influence_domain() takes its bases from here, so any
/// test that must agree with it on the support (the owner-computes
/// spread's reject test) calls this too.
Index influence_base(Real coord);

/// Compute the influential domain of Lagrangian position `pos`.
InfluenceDomain influence_domain(const Vec3& pos);

/// Spread the elastic forces of fibers [fiber_begin, fiber_end); single
/// writer (no synchronization).
void spread_force(const FiberSheet& sheet, FluidGrid& grid,
                  Index fiber_begin, Index fiber_end);

/// Same, but force accumulation uses atomic fetch-adds so multiple threads
/// may spread concurrently.
void spread_force_atomic(const FiberSheet& sheet, FluidGrid& grid,
                         Index fiber_begin, Index fiber_end);

}  // namespace lbmib
