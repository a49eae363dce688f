#include "lbm/collision.hpp"

#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/mrt.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

void collide_node_array(Real* g, Real tau, const Vec3& force) {
  using namespace d3q19;
  Real rho = 0.0;
  Vec3 mom{};
  for (int i = 0; i < kQ; ++i) {
    const Real gi = g[i];
    rho += gi;
    mom.x += gi * cx[static_cast<Size>(i)];
    mom.y += gi * cy[static_cast<Size>(i)];
    mom.z += gi * cz[static_cast<Size>(i)];
  }
  const Vec3 u = (mom + Real{0.5} * force) / rho;
  const Real inv_tau = Real{1} / tau;
  for (int i = 0; i < kQ; ++i) {
    const Real geq = equilibrium(i, rho, u);
    g[i] += -inv_tau * (g[i] - geq) + guo_forcing(i, tau, u, force);
  }
}

void collide_node(Real* g, Real tau, const MrtOperator* mrt,
                  const Vec3& force) {
  if (mrt != nullptr) {
    mrt->collide_node(g, force);
  } else {
    collide_node_array(g, tau, force);
  }
}

void collide_range(FluidGrid& grid, Real tau, Size begin, Size end,
                   const MrtOperator* mrt) {
  LBMIB_INSTRUMENT(
      inst::node_range(grid, begin, end, RaceField::kDf, RaceAccess::kWrite,
                       "collide_range: in-place df update");
      inst::node_range(grid, begin, end, RaceField::kForce,
                       RaceAccess::kRead, "collide_range: force read");)
  Real* planes[kQ];
  for (int i = 0; i < kQ; ++i) planes[i] = grid.df_plane(i);
  for (Size node = begin; node < end; ++node) {
    if (grid.solid(node)) continue;
    Real g[kQ];
    for (int i = 0; i < kQ; ++i) g[i] = planes[i][node];
    collide_node(g, tau, mrt, grid.force(node));
    for (int i = 0; i < kQ; ++i) planes[i][node] = g[i];
  }
}

}  // namespace lbmib
