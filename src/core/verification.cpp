#include "core/verification.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "core/solver.hpp"
#include "ib/fiber_sheet.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {

namespace {

/// The larger of `a` and `b`, or NaN if either is NaN. std::max drops a
/// NaN in its second argument, which would let a state that went NaN
/// compare as equal to one that did not.
Real max_nan(Real a, Real b) { return std::isnan(a) || a > b ? a : b; }

/// Fold the difference `diff` into the running maximum `m`.
void fold(Real& m, Real diff) { m = max_nan(m, std::abs(diff)); }

}  // namespace

Real StateDiff::max_any() const {
  Real m = max_df;
  for (Real c : {max_velocity, max_density, max_position, max_force,
                 max_fluid_force}) {
    m = max_nan(m, c);
  }
  return m;
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
      fold(d.max_df, a.df(dir, node) - b.df(dir, node));
    }
    fold(d.max_density, a.rho(node) - b.rho(node));
    fold(d.max_velocity, a.ux(node) - b.ux(node));
    fold(d.max_velocity, a.uy(node) - b.uy(node));
    fold(d.max_velocity, a.uz(node) - b.uz(node));
    fold(d.max_fluid_force, a.fx(node) - b.fx(node));
    fold(d.max_fluid_force, a.fy(node) - b.fy(node));
    fold(d.max_fluid_force, a.fz(node) - b.fz(node));
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
    for (Real c : {dp.x, dp.y, dp.z}) fold(d.max_position, c);
    for (Real c : {df.x, df.y, df.z}) fold(d.max_force, c);
  }
  return d;
}

StateDiff compare_structures(const Structure& a, const Structure& b) {
  require(a.size() == b.size(),
          "structures have different sheet counts");
  StateDiff d;
  for (Size s = 0; s < a.size(); ++s) {
    const StateDiff ds = compare_sheets(a[s], b[s]);
    d.max_position = max_nan(d.max_position, ds.max_position);
    d.max_force = max_nan(d.max_force, ds.max_force);
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
