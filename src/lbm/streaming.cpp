#include "lbm/streaming.hpp"

#include <cstring>

#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/simd.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

void stream_x_slab(FluidGrid& grid, Index x_begin, Index x_end) {
  stream_x_slab(grid, x_begin, x_end, 0, grid.ny());
}

void stream_x_slab(FluidGrid& grid, Index x_begin, Index x_end,
                   Index y_begin, Index y_end) {
  using namespace d3q19;
  const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
  // Pushes land in the slab plus one plane either side (periodically
  // wrapped); each (direction, destination) slot has a unique source, so
  // they are commutative scatters.
  LBMIB_INSTRUMENT(
      inst::planes(grid, static_cast<Size>(x_begin),
                   static_cast<Size>(x_end), RaceField::kDf,
                   RaceAccess::kRead, "stream_x_slab: df read");
      if (x_begin == 0 || x_end == nx) {
        inst::planes(grid, 0, static_cast<Size>(nx), RaceField::kDfNew,
                     RaceAccess::kScatter, "stream_x_slab: df_new push");
      } else {
        inst::planes(grid, static_cast<Size>(x_begin - 1),
                     static_cast<Size>(x_end + 1), RaceField::kDfNew,
                     RaceAccess::kScatter, "stream_x_slab: df_new push");
      })

  // Interior fast path: away from the grid faces no wrap can occur, so the
  // destination index is src + a constant per-direction stride.
  std::ptrdiff_t offset[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    offset[dir] =
        (static_cast<std::ptrdiff_t>(cx[static_cast<Size>(dir)]) * ny +
         cy[static_cast<Size>(dir)]) *
            nz +
        cz[static_cast<Size>(dir)];
  }

  const Real* df[kQ];
  Real* df_new[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    df[dir] = grid.df_plane(dir);
    df_new[dir] = grid.df_new_plane(dir);
  }

  // Moving-lid correction (lid-driven cavity): populations bouncing off
  // the z = nz-1 plane pick up momentum from the wall.
  const bool has_lid = grid.has_lid();
  Real lid_corr[kQ] = {};
  if (has_lid) {
    for (int dir = 0; dir < kQ; ++dir) {
      lid_corr[dir] = 2 * w[static_cast<Size>(dir)] * inv_cs2 *
                      dot(c(dir), grid.lid_velocity());
    }
  }

  for (Index x = x_begin; x < x_end; ++x) {
    const bool x_interior = (x > 0 && x < nx - 1);
    for (Index y = y_begin; y < y_end; ++y) {
      const bool y_interior = (y > 0 && y < ny - 1);
      // Keep the next z-row's source lines in flight while this row
      // scatters; the strided plane-to-plane hops defeat the linear
      // hardware prefetcher.
      {
        const Size next = grid.index(x, y, 0) + static_cast<Size>(nz);
        for (int dir = 0; dir < kQ; ++dir) {
          LBMIB_PREFETCH(df[dir] + next, 0, 2);
        }
      }
      for (Index z = 0; z < nz; ++z) {
        const Size src = grid.index(x, y, z);
        if (grid.solid(src)) continue;
        df_new[0][src] = df[0][src];  // rest particle stays put
        if (x_interior && y_interior && z > 0 && z < nz - 1) {
          for (int dir = 1; dir < kQ; ++dir) {
            const Size dst = static_cast<Size>(
                static_cast<std::ptrdiff_t>(src) + offset[dir]);
            if (grid.solid(dst)) {
              // Half-way bounce-back into the node's opposite direction.
              Real v = df[dir][src];
              if (has_lid &&
                  z + cz[static_cast<Size>(dir)] == nz - 1) {
                v -= lid_corr[dir];
              }
              df_new[opposite(dir)][src] = v;
            } else {
              df_new[dir][dst] = df[dir][src];
            }
          }
        } else {
          for (int dir = 1; dir < kQ; ++dir) {
            const Index tx =
                FluidGrid::wrap(x + cx[static_cast<Size>(dir)], nx);
            const Index ty =
                FluidGrid::wrap(y + cy[static_cast<Size>(dir)], ny);
            const Index tz =
                FluidGrid::wrap(z + cz[static_cast<Size>(dir)], nz);
            const Size dst = grid.index(tx, ty, tz);
            if (grid.solid(dst)) {
              Real v = df[dir][src];
              if (has_lid && tz == nz - 1) v -= lid_corr[dir];
              df_new[opposite(dir)][src] = v;
            } else {
              df_new[dir][dst] = df[dir][src];
            }
          }
        }
      }
    }
  }
}

void copy_distributions_range(FluidGrid& grid, Size begin, Size end) {
  LBMIB_INSTRUMENT(
      inst::node_range(grid, begin, end, RaceField::kDf, RaceAccess::kWrite,
                       "copy_distributions_range: df write");
      inst::node_range(grid, begin, end, RaceField::kDfNew,
                       RaceAccess::kRead,
                       "copy_distributions_range: df_new read");)
  const Size count = end - begin;
  for (int dir = 0; dir < kQ; ++dir) {
    std::memcpy(grid.df_plane(dir) + begin, grid.df_new_plane(dir) + begin,
                count * sizeof(Real));
  }
}

}  // namespace lbmib
