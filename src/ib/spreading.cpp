#include "ib/spreading.hpp"

#include <atomic>
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

namespace {

template <class AddForce>
void spread_impl(const FiberSheet& sheet, FluidGrid& grid,
                 Index fiber_begin, Index fiber_end, AddForce&& add) {
  const Real area = sheet.node_area();
  for (Index f = fiber_begin; f < fiber_end; ++f) {
    for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
      const Size node_id = sheet.id(f, j);
      const Vec3 force = area * sheet.elastic_force(node_id);
      const InfluenceDomain d = influence_domain(sheet.position(node_id));
      for (int a = 0; a < 4; ++a) {
        const Real wa = d.wx[a];
        if (wa == Real{0}) continue;
        for (int b = 0; b < 4; ++b) {
          const Real wab = wa * d.wy[b];
          if (wab == Real{0}) continue;
          for (int c = 0; c < 4; ++c) {
            const Real w = wab * d.wz[c];
            if (w == Real{0}) continue;
            const Size fluid_node = grid.periodic_index(
                d.base[0] + a, d.base[1] + b, d.base[2] + c);
            add(fluid_node, w * force);
          }
        }
      }
    }
  }
}

}  // namespace

void spread_force(const FiberSheet& sheet, FluidGrid& grid,
                  Index fiber_begin, Index fiber_end) {
  // Plain += into a 4x4x4 domain around each fiber node, anywhere in the
  // grid: one coarse exclusive write over every plane per call. Callers
  // must fully order concurrent spreads (the OpenMP solver runs this
  // path single-threaded; the atomic variant is the concurrent one).
  LBMIB_INSTRUMENT(
      inst::planes(grid, 0, static_cast<Size>(grid.nx()),
                   RaceField::kForce, RaceAccess::kWrite, "spread_force");)
  spread_impl(sheet, grid, fiber_begin, fiber_end,
              [&grid](Size node, const Vec3& f) { grid.add_force(node, f); });
}

void spread_force_atomic(const FiberSheet& sheet, FluidGrid& grid,
                         Index fiber_begin, Index fiber_end) {
  // The relaxed fetch_adds commute with each other: one coarse scatter
  // over every plane per call.
  LBMIB_INSTRUMENT(
      inst::planes(grid, 0, static_cast<Size>(grid.nx()),
                   RaceField::kForce, RaceAccess::kScatter,
                   "spread_force_atomic");)
  Real* fx = grid.fx_data();
  Real* fy = grid.fy_data();
  Real* fz = grid.fz_data();
  spread_impl(sheet, grid, fiber_begin, fiber_end,
              [=](Size node, const Vec3& f) {
                std::atomic_ref<Real>(fx[node]).fetch_add(
                    f.x, std::memory_order_relaxed);
                std::atomic_ref<Real>(fy[node]).fetch_add(
                    f.y, std::memory_order_relaxed);
                std::atomic_ref<Real>(fz[node]).fetch_add(
                    f.z, std::memory_order_relaxed);
              });
}

}  // namespace lbmib
