// Kernel 4: spread_force_from_fibers_to_fluid.
//
// Each fiber node exerts its elastic force onto the fluid nodes of its
// influential domain — the 4x4x4 block of lattice nodes within the Peskin
// 4-point kernel's support — weighted by the tensor-product smoothed delta
// and the node's Lagrangian patch area:
//     f(x) += F_l * delta_h(x - X_l) * dA_l.
//
// Spreading is owner-computes: a writer adds only what lands in the
// columns of its OwnedBox (lbm/owned_box.hpp), walking every fiber in
// the same order, so each fluid node sums its contributions in the
// sequential order whichever box owns it and no add is atomic. Kernel 4
// owns the force field: each writer first sets its box to the body force
// and then spreads into it (spread_force_owned), so between steps the
// field holds the step's total force. The cube-layout flavours live in
// cube/cube_kernels.hpp: Algorithm 4's per-owner-locked spread, and the
// owner-computes spread over a cube owner table.
#pragma once

#include "common/types.hpp"
#include "common/vec3.hpp"
#include "ib/fiber_sheet.hpp"
#include "lbm/owned_box.hpp"

namespace lbmib {

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

/// The support walk spreading and interpolation share: call
/// visit(node, w) for every node of the influential domain of `pos` that
/// `box` owns and weighs non-zero, in a -> b -> c order, with `node` an
/// index into `grid`. A support that misses the box is rejected before
/// its weights are computed.
template <class Visit>
void visit_owned_support(const FluidGrid& grid, const OwnedBox& box,
                         const Vec3& pos, Visit&& visit) {
  if (!box.reaches(influence_base(pos.x), influence_base(pos.y))) return;
  const InfluenceDomain d = influence_domain(pos);
  for (int a = 0; a < 4; ++a) {
    const Real wa = d.wx[a];
    if (wa == Real{0}) continue;
    const Index gx = FluidGrid::wrap(d.base[0] + a, box.nx);
    if (!box.owns_x(gx)) continue;
    for (int b = 0; b < 4; ++b) {
      const Real wab = wa * d.wy[b];
      if (wab == Real{0}) continue;
      const Index gy = FluidGrid::wrap(d.base[1] + b, box.ny);
      if (!box.owns_y(gy)) continue;
      const Size column = grid.index(gx + box.dx, gy + box.dy, 0);
      for (int c = 0; c < 4; ++c) {
        const Real w = wab * d.wz[c];
        if (w == Real{0}) continue;
        // The node index comes first so that a caller's `w * x` and its
        // add stay adjacent: GCC then contracts them into FMAs, as in
        // every other spread.
        visit(column + static_cast<Size>(
                           FluidGrid::wrap(d.base[2] + c, grid.nz())),
              w);
      }
    }
  }
}

/// Spread the elastic forces of fibers [fiber_begin, fiber_end) into the
/// nodes `box` owns. Writers with disjoint boxes may spread at the same
/// time once every fiber force is published; the boxes of a partition
/// together add exactly what the whole-grid form adds, bit for bit.
void spread_force(const FiberSheet& sheet, FluidGrid& grid,
                  const OwnedBox& box, Index fiber_begin, Index fiber_end);

/// Whole-grid form: the box is every column of `grid` (single writer).
void spread_force(const FiberSheet& sheet, FluidGrid& grid,
                  Index fiber_begin, Index fiber_end);

/// Kernel 4 of one planar writer: set the force of every node `box` owns
/// to `body_force`, then spread every fiber of every sheet of `structure`
/// into the box. The sequential solver's box is the whole grid, an
/// OpenMP thread's its x-slab, a distributed rank's its tile. Writers
/// with disjoint boxes may run at once once every fiber force is
/// published; nothing outside the box is touched.
void spread_force_owned(const Structure& structure, FluidGrid& grid,
                        const OwnedBox& box, const Vec3& body_force);

}  // namespace lbmib
