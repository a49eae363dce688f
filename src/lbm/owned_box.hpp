// The part of a planar grid one writer owns, the planar counterpart of
// the cube layout's owner table: a range of global (x, y) columns, every
// z. The sequential solver owns the whole grid, an OpenMP thread its
// x-slab, a distributed rank its tile (stored in a private grid with one
// ghost layer per side). spread_force, spread_force_owned,
// interpolate_velocity and apply_inlet_outlet take a box and touch only
// the nodes it owns.
#pragma once

#include "common/types.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {

struct OwnedBox {
  Index x_lo, x_hi;  ///< owned global x range [x_lo, x_hi)
  Index y_lo, y_hi;  ///< owned global y range [y_lo, y_hi)
  Index nx, ny;      ///< global extents a support wraps around
  Index dx = 0;      ///< global-to-local offset along x: lx = gx + dx
  Index dy = 0;      ///< and along y

  /// Every column of `grid`, stored at its global position.
  static OwnedBox whole(const FluidGrid& grid) {
    return {0, grid.nx(), 0, grid.ny(), grid.nx(), grid.ny()};
  }

  /// The global x-slab [x_begin, x_end) of `grid`, every y.
  static OwnedBox x_slab(const FluidGrid& grid, Index x_begin, Index x_end) {
    return {x_begin, x_end, 0, grid.ny(), grid.nx(), grid.ny()};
  }

  /// Tile [x_lo, x_hi) x [y_lo, y_hi) of an nx x ny domain, stored in a
  /// private grid with one ghost layer per side: global x_lo is local 1.
  static OwnedBox ghosted_tile(Index x_lo, Index x_hi, Index y_lo,
                               Index y_hi, Index nx, Index ny) {
    return {x_lo, x_hi, y_lo, y_hi, nx, ny, 1 - x_lo, 1 - y_lo};
  }

  bool owns_x(Index gx) const { return gx >= x_lo && gx < x_hi; }
  bool owns_y(Index gy) const { return gy >= y_lo && gy < y_hi; }

  /// Does a support of 4 lattice indices per axis, starting at the
  /// unwrapped global bases (base_x, base_y), reach an owned column?
  bool reaches(Index base_x, Index base_y) const {
    return axis_reaches(base_x, x_lo, x_hi, nx) &&
           axis_reaches(base_y, y_lo, y_hi, ny);
  }

 private:
  static bool axis_reaches(Index base, Index lo, Index hi, Index n) {
    if (hi - lo >= n) return true;
    for (Index k = 0; k < 4; ++k) {
      const Index g = FluidGrid::wrap(base + k, n);
      if (g >= lo && g < hi) return true;
    }
    return false;
  }
};

}  // namespace lbmib
