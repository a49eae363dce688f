#include "lbm/boundary.hpp"

#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/owned_box.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

void apply_boundary_mask(FluidGrid& grid, BoundaryType type) {
  if (type == BoundaryType::kPeriodic) return;
  const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
  const bool x_walls = (type == BoundaryType::kCavity);
  for (Index x = 0; x < nx; ++x) {
    for (Index y = 0; y < ny; ++y) {
      for (Index z = 0; z < nz; ++z) {
        const bool wall = (y == 0 || y == ny - 1 || z == 0 ||
                           z == nz - 1 ||
                           (x_walls && (x == 0 || x == nx - 1)));
        if (wall) grid.set_solid(grid.index(x, y, z), true);
      }
    }
  }
}

bool is_boundary_solid(const SimulationParams& params, Index gx, Index gy,
                       Index gz) {
  switch (params.boundary) {
    case BoundaryType::kPeriodic:
      break;
    case BoundaryType::kChannel:
    case BoundaryType::kInletOutlet:
      if (gy == 0 || gy == params.ny - 1 || gz == 0 ||
          gz == params.nz - 1) {
        return true;
      }
      break;
    case BoundaryType::kCavity:
      if (gx == 0 || gx == params.nx - 1 || gy == 0 ||
          gy == params.ny - 1 || gz == 0 || gz == params.nz - 1) {
        return true;
      }
      break;
  }
  for (const SphereObstacle& s : params.obstacles) {
    const Vec3 p{static_cast<Real>(gx), static_cast<Real>(gy),
                 static_cast<Real>(gz)};
    if (norm2(p - s.center) <= s.radius * s.radius) return true;
  }
  return false;
}

void apply_params_mask(FluidGrid& grid, const SimulationParams& params) {
  for (Index x = 0; x < grid.nx(); ++x) {
    for (Index y = 0; y < grid.ny(); ++y) {
      for (Index z = 0; z < grid.nz(); ++z) {
        if (is_boundary_solid(params, x, y, z)) {
          grid.set_solid(grid.index(x, y, z), true);
        }
      }
    }
  }
}

namespace {

/// Raw moments of a node's streamed distributions (no force correction).
void streamed_moments(const FluidGrid& grid, Size node, Real& rho,
                      Vec3& u) {
  using namespace d3q19;
  rho = 0.0;
  Vec3 mom{};
  for (int dir = 0; dir < kQ; ++dir) {
    const Real g = grid.df_new(dir, node);
    rho += g;
    mom += g * c(dir);
  }
  u = mom / rho;
}

}  // namespace

void apply_inlet_outlet(FluidGrid& grid, const OwnedBox& box,
                        const Vec3& inlet_velocity) {
  const Index nx = box.nx, nz = grid.nz();
  // Rewrite boundary column gx from the streamed state of column
  // upstream_gx, one equilibrium per owned node.
  auto rewrite = [&](Index gx, Index upstream_gx,
                     [[maybe_unused]] const char* what,
                     auto&& equilibrium_of) {
    const Index lx = gx + box.dx, upstream_lx = upstream_gx + box.dx;
    LBMIB_INSTRUMENT(
        inst::planes(grid, static_cast<Size>(lx), static_cast<Size>(lx) + 1,
                     RaceField::kDfNew, RaceAccess::kWrite, what);
        inst::planes(grid, static_cast<Size>(upstream_lx),
                     static_cast<Size>(upstream_lx) + 1, RaceField::kDfNew,
                     RaceAccess::kRead, what);)
    for (Index gy = box.y_lo; gy < box.y_hi; ++gy) {
      const Index ly = gy + box.dy;
      for (Index z = 0; z < nz; ++z) {
        const Size node = grid.index(lx, ly, z);
        if (grid.solid(node)) continue;
        Real rho;
        Vec3 u;
        streamed_moments(grid, grid.index(upstream_lx, ly, z), rho, u);
        for (int dir = 0; dir < kQ; ++dir) {
          grid.df_new(dir, node) = equilibrium_of(dir, rho, u);
        }
      }
    }
  };
  if (box.owns_x(0)) {
    // Velocity inlet: impose u = inlet_velocity at the local density
    // (taken from the x=1 neighbour, whose post-streaming state is
    // uncontaminated by the periodic wrap). Using the local density
    // instead of a fixed one lets the channel carry the pressure
    // gradient the wall friction requires.
    rewrite(0, 1, "apply_inlet_outlet: inlet",
            [&](int dir, Real rho, const Vec3&) {
              return d3q19::equilibrium(dir, rho, inlet_velocity);
            });
  }
  if (box.owns_x(nx - 1)) {
    // Pressure outlet: anchor the density at 1 and extrapolate the
    // velocity from the upstream column (first-order open boundary).
    rewrite(nx - 1, nx - 2, "apply_inlet_outlet: outlet",
            [](int dir, Real, const Vec3& u) {
              return d3q19::equilibrium(dir, Real{1}, u);
            });
  }
}

Size count_solid_nodes(const FluidGrid& grid) {
  Size count = 0;
  for (Size node = 0; node < grid.num_nodes(); ++node) {
    if (grid.solid(node)) ++count;
  }
  return count;
}

}  // namespace lbmib
