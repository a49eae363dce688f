#include "core/verification.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "core/solver.hpp"
#include "ib/fiber_sheet.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {

Real StateDiff::max_any() const {
  return std::max({max_df, max_velocity, max_density, max_position,
                   max_force, max_fluid_force});
}

std::string StateDiff::to_string() const {
  std::ostringstream os;
  os << "df=" << max_df << " u=" << max_velocity << " rho=" << max_density
     << " X=" << max_position << " F=" << max_force
     << " f=" << max_fluid_force;
  return os.str();
}

StateDiff compare_fluid(const FluidGrid& a, const FluidGrid& b) {
  require(a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz(),
          "fluid grids have different dimensions");
  StateDiff d;
  for (Size node = 0; node < a.num_nodes(); ++node) {
    for (int dir = 0; dir < kQ; ++dir) {
      d.max_df = std::max(d.max_df,
                          std::abs(a.df(dir, node) - b.df(dir, node)));
    }
    d.max_density =
        std::max(d.max_density, std::abs(a.rho(node) - b.rho(node)));
    d.max_velocity =
        std::max({d.max_velocity, std::abs(a.ux(node) - b.ux(node)),
                  std::abs(a.uy(node) - b.uy(node)),
                  std::abs(a.uz(node) - b.uz(node))});
    d.max_fluid_force =
        std::max({d.max_fluid_force, std::abs(a.fx(node) - b.fx(node)),
                  std::abs(a.fy(node) - b.fy(node)),
                  std::abs(a.fz(node) - b.fz(node))});
  }
  return d;
}

StateDiff compare_sheets(const FiberSheet& a, const FiberSheet& b) {
  require(a.num_fibers() == b.num_fibers() &&
              a.nodes_per_fiber() == b.nodes_per_fiber(),
          "fiber sheets have different dimensions");
  StateDiff d;
  for (Size i = 0; i < a.num_nodes(); ++i) {
    const Vec3 dp = a.position(i) - b.position(i);
    const Vec3 df = a.elastic_force(i) - b.elastic_force(i);
    d.max_position = std::max(
        {d.max_position, std::abs(dp.x), std::abs(dp.y), std::abs(dp.z)});
    d.max_force = std::max(
        {d.max_force, std::abs(df.x), std::abs(df.y), std::abs(df.z)});
  }
  return d;
}

StateDiff compare_structures(const Structure& a, const Structure& b) {
  require(a.size() == b.size(),
          "structures have different sheet counts");
  StateDiff d;
  for (Size s = 0; s < a.size(); ++s) {
    const StateDiff ds = compare_sheets(a[s], b[s]);
    d.max_position = std::max(d.max_position, ds.max_position);
    d.max_force = std::max(d.max_force, ds.max_force);
  }
  return d;
}

StateDiff compare_solvers(const Solver& a, const Solver& b) {
  const auto& pa = a.params();
  FluidGrid ga(pa.nx, pa.ny, pa.nz);
  FluidGrid gb(pa.nx, pa.ny, pa.nz);
  a.snapshot_fluid(ga);
  b.snapshot_fluid(gb);
  StateDiff d = compare_fluid(ga, gb);
  const StateDiff ds = compare_structures(a.structure(), b.structure());
  d.max_position = ds.max_position;
  d.max_force = ds.max_force;
  return d;
}

}  // namespace lbmib
