#include "ib/interpolation.hpp"

#include "ib/spreading.hpp"
#include "lbm/fluid_grid.hpp"
#include "ib/fiber_sheet.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

Vec3 interpolate_velocity(const FluidGrid& grid, const OwnedBox& box,
                          const Vec3& pos) {
  Vec3 u{};
  visit_owned_support(grid, box, pos,
                      [&](Size node, Real w) { u += w * grid.velocity(node); });
  return u;
}

Vec3 interpolate_velocity(const FluidGrid& grid, const Vec3& pos) {
  return interpolate_velocity(grid, OwnedBox::whole(grid), pos);
}

void move_fibers(FiberSheet& sheet, const FluidGrid& grid,
                 Index fiber_begin, Index fiber_end, Real dt) {
  // Interpolation touches the 4x4x4 influence domain of every owned
  // fiber node; model it as one read of every plane's macroscopic field
  // (sound over-approximation, see DESIGN.md §12).
  LBMIB_INSTRUMENT(
      inst::planes(grid, 0, static_cast<Size>(grid.nx()),
                   RaceField::kMacro, RaceAccess::kRead,
                   "move_fibers: velocity read");)
  for (Index f = fiber_begin; f < fiber_end; ++f) {
    for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
      const Size i = sheet.id(f, j);
      if (sheet.immobile(i)) continue;
      const Vec3 u = interpolate_velocity(grid, sheet.position(i));
      sheet.position(i) += dt * u;
    }
  }
}

}  // namespace lbmib
