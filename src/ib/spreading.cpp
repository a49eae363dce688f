#include "ib/spreading.hpp"

#include <cmath>

#include "ib/delta.hpp"
#include "ib/fiber_sheet.hpp"
#include "lbm/fluid_grid.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

Index influence_base(Real coord) {
  // A diverged run can hand us non-finite or astronomically large
  // coordinates before the next health scan notices; the float->int
  // conversion below is undefined for those, so clamp first. The phi4
  // weights of such a node come out zero or NaN either way — the bad
  // state stays detectable, but the index arithmetic stays defined.
  constexpr Real kMaxCoord = 1e15;
  const Real floored = std::floor(coord);
  return (floored >= -kMaxCoord && floored <= kMaxCoord)
             ? static_cast<Index>(floored) - 1
             : 0;
}

InfluenceDomain influence_domain(const Vec3& pos) {
  InfluenceDomain d;
  const Real coords[3] = {pos.x, pos.y, pos.z};
  Real* weights[3] = {d.wx, d.wy, d.wz};
  for (int axis = 0; axis < 3; ++axis) {
    const Index base = influence_base(coords[axis]);
    d.base[axis] = base;
    for (int k = 0; k < 4; ++k) {
      weights[axis][k] =
          phi4(static_cast<Real>(base + k) - coords[axis]);
    }
  }
  return d;
}

void spread_force(const FiberSheet& sheet, FluidGrid& grid,
                  const OwnedBox& box, Index fiber_begin, Index fiber_end) {
  // Plain += into the box's columns, wherever in them the supports land:
  // one coarse exclusive write over the box's local planes per call.
  LBMIB_INSTRUMENT(
      inst::planes(grid, static_cast<Size>(box.x_lo + box.dx),
                   static_cast<Size>(box.x_hi + box.dx), RaceField::kForce,
                   RaceAccess::kWrite, "spread_force");)
  const Real area = sheet.node_area();
  for (Index f = fiber_begin; f < fiber_end; ++f) {
    for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
      const Size node_id = sheet.id(f, j);
      const Vec3 force = area * sheet.elastic_force(node_id);
      visit_owned_support(grid, box, sheet.position(node_id),
                          [&](Size node, Real w) {
                            grid.add_force(node, w * force);
                          });
    }
  }
}

void spread_force(const FiberSheet& sheet, FluidGrid& grid,
                  Index fiber_begin, Index fiber_end) {
  spread_force(sheet, grid, OwnedBox::whole(grid), fiber_begin, fiber_end);
}

}  // namespace lbmib
