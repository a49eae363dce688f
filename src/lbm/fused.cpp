#include "lbm/fused.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "lbm/collision.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/simd.hpp"
#include "lbm/simd_kernels.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

namespace {

/// Per-direction plane pointers, constant interior strides, and the
/// moving-lid correction — the loop furniture shared with stream_x_slab.
struct StreamContext {
  const Real* df[kQ];
  Real* df_new[kQ];
  std::ptrdiff_t offset[kQ];
  // Interior offsets with the z wrap folded in: at z = 0 the cz = -1
  // directions land at z = nz-1 of the neighbour row (offset + nz); at
  // z = nz-1 the cz = +1 directions land at z = 0 (offset - nz). For a
  // fully clear row the caps need no solid/lid checks, so these turn the
  // cap nodes into straight gather/collide/19-store bodies.
  std::ptrdiff_t cap_offset_lo[kQ];  // z = 0
  std::ptrdiff_t cap_offset_hi[kQ];  // z = nz-1
  Real lid_corr[kQ];
  bool has_lid;

  explicit StreamContext(FluidGrid& grid) {
    using namespace d3q19;
    const Index ny = grid.ny(), nz = grid.nz();
    for (int dir = 0; dir < kQ; ++dir) {
      df[dir] = grid.df_plane(dir);
      df_new[dir] = grid.df_new_plane(dir);
      offset[dir] =
          (static_cast<std::ptrdiff_t>(cx[static_cast<Size>(dir)]) * ny +
           cy[static_cast<Size>(dir)]) *
              nz +
          cz[static_cast<Size>(dir)];
      const int czd = cz[static_cast<Size>(dir)];
      cap_offset_lo[dir] = offset[dir] + (czd < 0 ? nz : 0);
      cap_offset_hi[dir] = offset[dir] - (czd > 0 ? nz : 0);
      lid_corr[dir] = 0.0;
    }
    has_lid = grid.has_lid();
    if (has_lid) {
      for (int dir = 0; dir < kQ; ++dir) {
        lid_corr[dir] = 2 * w[static_cast<Size>(dir)] * inv_cs2 *
                        dot(c(dir), grid.lid_velocity());
      }
    }
  }
};

/// Collide-in-registers callable: BGK when `mrt` is null, MRT otherwise.
struct NodeCollide {
  const FluidGrid& grid;
  Real tau;
  const MrtOperator* mrt;

  void operator()(Real* g, Size node) const {
    collide_node(g, tau, mrt, grid.force(node));
  }
};

/// Scalar collide + push of the single node (x, y, z) under the planar
/// sweep's boundary rules (periodic wrap in all axes at the grid faces).
/// This is the reference loop body the lane kernels mirror; it handles
/// solid sources, bounce-back, the moving lid, and wrap.
inline void slab_node_scalar(const FluidGrid& grid,
                             const StreamContext& ctx,
                             const NodeCollide& collide, Index nx,
                             Index ny, Index nz, Index x, Index y,
                             Index z) {
  using namespace d3q19;
  const Size src = grid.index(x, y, z);
  if (grid.solid(src)) {
    // Nothing ever pushes into a solid node, so its df_new slots would go
    // stale across swaps; zero them to keep the post-swap invariant
    // df[solid] == 0 of the reference path.
    for (int dir = 0; dir < kQ; ++dir) ctx.df_new[dir][src] = 0.0;
    return;
  }
  Real g[kQ];
  for (int dir = 0; dir < kQ; ++dir) g[dir] = ctx.df[dir][src];
  collide(g, src);
  ctx.df_new[0][src] = g[0];  // rest particle stays put
  if (x > 0 && x < nx - 1 && y > 0 && y < ny - 1 && z > 0 && z < nz - 1) {
    for (int dir = 1; dir < kQ; ++dir) {
      const Size dst = static_cast<Size>(
          static_cast<std::ptrdiff_t>(src) + ctx.offset[dir]);
      if (grid.solid(dst)) {
        Real v = g[dir];
        if (ctx.has_lid && z + cz[static_cast<Size>(dir)] == nz - 1) {
          v -= ctx.lid_corr[dir];
        }
        ctx.df_new[opposite(dir)][src] = v;
      } else {
        ctx.df_new[dir][dst] = g[dir];
      }
    }
  } else {
    for (int dir = 1; dir < kQ; ++dir) {
      const Index tx = FluidGrid::wrap(x + cx[static_cast<Size>(dir)], nx);
      const Index ty = FluidGrid::wrap(y + cy[static_cast<Size>(dir)], ny);
      const Index tz = FluidGrid::wrap(z + cz[static_cast<Size>(dir)], nz);
      const Size dst = grid.index(tx, ty, tz);
      if (grid.solid(dst)) {
        Real v = g[dir];
        if (ctx.has_lid && tz == nz - 1) v -= ctx.lid_corr[dir];
        ctx.df_new[opposite(dir)][src] = v;
      } else {
        ctx.df_new[dir][dst] = g[dir];
      }
    }
  }
}

/// Branch-free cap node of a fully clear row (z = 0 with cap_offset_lo,
/// z = nz-1 with cap_offset_hi): the 3x3 neighborhood is solid-free, so
/// every push lands in fluid (no bounce-back, no lid correction) and only
/// the z wrap — already folded into the offsets — distinguishes the caps
/// from interior nodes.
inline void fused_cap_node(const StreamContext& ctx,
                           const NodeCollide& collide, Size src,
                           const std::ptrdiff_t* offset) {
  Real g[kQ];
  for (int dir = 0; dir < kQ; ++dir) g[dir] = ctx.df[dir][src];
  collide(g, src);
  ctx.df_new[0][src] = g[0];
  for (int dir = 1; dir < kQ; ++dir) {
    ctx.df_new[dir][static_cast<Size>(
        static_cast<std::ptrdiff_t>(src) + offset[dir])] = g[dir];
  }
}

/// Dispatch a prepared contiguous run [run0, run0+len) with per-direction
/// source/destination plane pointers to the lane-block collide kernels.
inline void fused_run_kernels(const FluidGrid& grid, Real tau,
                              const MrtOperator* mrt, Size run0, Size len,
                              const Real* const* src, Real* const* dst) {
  fused_block(src, dst, grid.fx_data() + run0, grid.fy_data() + run0,
              grid.fz_data() + run0, len, tau, mrt);
}

/// Hand a contiguous z-run of a clear row starting at linear index
/// `run0` to the lane-block kernels: every destination is src + offset
/// (never solid, never lid-corrected), so dst plane pointers pre-shifted
/// by the stream offset turn the scatter into 19 contiguous stores.
/// `offset` is ctx.offset for interior rows, or a per-row array with the
/// x/y wrap folded in for grid-face rows.
inline void fused_row_simd(const FluidGrid& grid, const StreamContext& ctx,
                           Real tau, const MrtOperator* mrt, Size run0,
                           Size len, const std::ptrdiff_t* offset) {
  const Real* src[kQ];
  Real* dst[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    src[dir] = ctx.df[dir] + run0;
    dst[dir] = ctx.df_new[dir] +
               (static_cast<std::ptrdiff_t>(run0) + offset[dir]);
  }
  fused_run_kernels(grid, tau, mrt, run0, len, src, dst);
}

/// Mixed wall/fluid row: the interior run [2, nz-2) of row (x, y) still
/// vectorizes when every stream-target row is either a full wall row
/// (all nz nodes solid) or solid-free in the interior z band [1, nz-1).
/// A wall target turns every push of that direction into bounce-back at
/// the source — a store into the *opposite* direction's plane at the
/// source index itself, which is just as contiguous as a straight push;
/// the moving-lid correction only applies at tz == nz-1, which the run
/// never reaches (tz stays in [1, nz-2]). A solid-free-interior target
/// takes a straight store with the periodic x/y wrap folded into its
/// offset. This covers the wall-adjacent rows a channel or lid-driven
/// cavity leaves behind after the clear/cap-clear paths. Returns false
/// (leaving dst untouched) when some target row mixes interior solids
/// with fluid — e.g. rows next to an embedded obstacle.
inline bool build_mixed_row_dsts(const FluidGrid& grid,
                                 const StreamContext& ctx, Index x,
                                 Index y, Size run0, const Real** src,
                                 Real** dst) {
  using namespace d3q19;
  if (grid.row_interior_solid(x, y)) return false;
  const Index nx = grid.nx(), ny = grid.ny();
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(grid.num_nodes());
  const std::ptrdiff_t plane =
      static_cast<std::ptrdiff_t>(ny) * grid.nz();
  src[0] = ctx.df[0] + run0;
  dst[0] = ctx.df_new[0] + run0;
  for (int dir = 1; dir < kQ; ++dir) {
    src[dir] = ctx.df[dir] + run0;
    const Index rx = x + cx[static_cast<Size>(dir)];
    const Index ry = y + cy[static_cast<Size>(dir)];
    const Index tx = FluidGrid::wrap(rx, nx);
    const Index ty = FluidGrid::wrap(ry, ny);
    if (grid.row_solid(tx, ty)) {
      dst[dir] = ctx.df_new[opposite(dir)] + run0;
    } else if (!grid.row_interior_solid(tx, ty)) {
      std::ptrdiff_t o = ctx.offset[dir];
      if (tx != rx) o += (rx < 0 ? n : -n);
      if (ty != ry) o += (ry < 0 ? plane : -plane);
      dst[dir] =
          ctx.df_new[dir] + (static_cast<std::ptrdiff_t>(run0) + o);
    } else {
      return false;
    }
  }
  return true;
}

/// Per-row stream offsets for a grid-face row (x, y): ctx.offset with the
/// periodic x/y wrap of each direction's target folded in, plus the two
/// z-cap variants. After this, a wrap-clear face row runs the same
/// branch-free kernels as an interior clear row.
inline void build_row_wrap_offsets(const FluidGrid& grid,
                                   const StreamContext& ctx, Index x,
                                   Index y, std::ptrdiff_t* off,
                                   std::ptrdiff_t* cap_lo,
                                   std::ptrdiff_t* cap_hi) {
  using namespace d3q19;
  const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(grid.num_nodes());
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(ny) * nz;
  for (int dir = 0; dir < kQ; ++dir) {
    const Index tx = x + cx[static_cast<Size>(dir)];
    const Index ty = y + cy[static_cast<Size>(dir)];
    std::ptrdiff_t o = ctx.offset[dir];
    if (tx < 0) o += n;
    if (tx >= nx) o -= n;
    if (ty < 0) o += plane;
    if (ty >= ny) o -= plane;
    off[dir] = o;
    const int czd = cz[static_cast<Size>(dir)];
    cap_lo[dir] = o + (czd < 0 ? nz : 0);
    cap_hi[dir] = o - (czd > 0 ? nz : 0);
  }
}

/// Zero every df_new slot of an all-solid (wall) row: one contiguous
/// memset per direction — bit-identical to the scalar path's per-node
/// zeroing, at a fraction of the cost.
inline void zero_solid_row(const StreamContext& ctx, Size src0, Index nz) {
  for (int dir = 0; dir < kQ; ++dir) {
    std::memset(ctx.df_new[dir] + src0, 0,
                static_cast<Size>(nz) * sizeof(Real));
  }
}

/// Prefetch (for write) the wrap-around destination lines of a clear
/// row's two boundary columns before the scalar wrap path scatters into
/// them: z = 0 pushes its cz = -1 populations to the far z = nz-1 end of
/// neighbour rows and z = nz-1 pushes cz = +1 to z = 0 — lines the linear
/// hardware prefetcher never sees coming.
inline void prefetch_wrap_columns(const FluidGrid& grid,
                                  const StreamContext& ctx, Index x,
                                  Index y, Index nz) {
  using namespace d3q19;
  for (int dir = 1; dir < kQ; ++dir) {
    const int czd = cz[static_cast<Size>(dir)];
    if (czd == 0) continue;
    const Size dst = grid.periodic_index(x + cx[static_cast<Size>(dir)],
                                         y + cy[static_cast<Size>(dir)],
                                         czd > 0 ? 0 : nz - 1);
    LBMIB_PREFETCH(ctx.df_new[dir] + dst, 1, 0);
  }
}

/// Prefetch the next z-row of every source plane (plus its force row)
/// while the current row computes; by the time the sweep advances one y
/// the lines are in flight.
inline void prefetch_next_row(const FluidGrid& grid,
                              const StreamContext& ctx, Size src0,
                              Index nz) {
  const Size next = src0 + static_cast<Size>(nz);
  for (int dir = 0; dir < kQ; ++dir) {
    LBMIB_PREFETCH(ctx.df[dir] + next, 0, 2);
  }
  LBMIB_PREFETCH(grid.fx_data() + next, 0, 2);
  LBMIB_PREFETCH(grid.fy_data() + next, 0, 2);
  LBMIB_PREFETCH(grid.fz_data() + next, 0, 2);
}

}  // namespace

Index fused_auto_tile_y(Index ny, Index nz) {
  static const Size l2_bytes = [] {
    long bytes = 0;
#if defined(_SC_LEVEL2_CACHE_SIZE)
    bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    if (bytes <= 0) bytes = 512 * 1024;
    return static_cast<Size>(bytes);
  }();
  // One unit of y keeps 3 x-rows of both df buffers hot: 2 * kQ planes
  // * 3 rows * nz nodes * sizeof(Real).
  const Size per_y = static_cast<Size>(2 * kQ * 3) *
                     static_cast<Size>(nz) * sizeof(Real);
  const Size tile = (l2_bytes / 2) / per_y;
  if (tile < 1) return 1;
  if (tile > static_cast<Size>(ny)) return ny;
  return static_cast<Index>(tile);
}

void fused_collide_stream_x_slab(FluidGrid& grid, Real tau,
                                 const MrtOperator* mrt, Index x_begin,
                                 Index x_end, bool simd, Index tile_y) {
  fused_collide_stream_x_slab(grid, tau, mrt, x_begin, x_end, 0, grid.ny(),
                              simd, tile_y);
}

void fused_collide_stream_x_slab(FluidGrid& grid, Real tau,
                                 const MrtOperator* mrt, Index x_begin,
                                 Index x_end, Index y_begin, Index y_end,
                                 bool simd, Index tile_y) {
  const Index nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
  // Same footprint as stream_x_slab (reads stay inside the slab, pushes
  // reach one plane either side) plus the collide's force read.
  LBMIB_INSTRUMENT(
      inst::planes(grid, static_cast<Size>(x_begin),
                   static_cast<Size>(x_end), RaceField::kDf,
                   RaceAccess::kRead, "fused_collide_stream: df read");
      inst::planes(grid, static_cast<Size>(x_begin),
                   static_cast<Size>(x_end), RaceField::kForce,
                   RaceAccess::kRead, "fused_collide_stream: force read");
      if (x_begin == 0 || x_end == nx) {
        inst::planes(grid, 0, static_cast<Size>(nx), RaceField::kDfNew,
                     RaceAccess::kScatter,
                     "fused_collide_stream: df_new push");
      } else {
        inst::planes(grid, static_cast<Size>(x_begin - 1),
                     static_cast<Size>(x_end + 1), RaceField::kDfNew,
                     RaceAccess::kScatter,
                     "fused_collide_stream: df_new push");
      })
  StreamContext ctx(grid);
  const NodeCollide collide{grid, tau, mrt};
  const bool vector_rows = simd && nz >= 3;
  // Cap-clear rows vectorize [2, nz-2) and run four scalar cap nodes;
  // that needs at least one interior node between the caps.
  const bool cap_rows = simd && nz >= 5;
  const Index tile =
      tile_y > 0 ? std::min(tile_y, ny) : fused_auto_tile_y(ny, nz);

  // y-tiled traversal: a tile's 3-x-row df working set stays L2-resident
  // across the x sweep. Safe to re-order freely — every df_new slot has
  // exactly one writer, so the result is bit-identical for any traversal.
  for (Index ty = y_begin; ty < y_end; ty += tile) {
    const Index ty_end = std::min(ty + tile, y_end);
    for (Index x = x_begin; x < x_end; ++x) {
      for (Index y = ty; y < ty_end; ++y) {
        const Size src0 = grid.index(x, y, 0);
        if (grid.row_solid(x, y)) {
          zero_solid_row(ctx, src0, nz);
          continue;
        }
        prefetch_next_row(grid, ctx, src0, nz);
        const bool face_row =
            x == 0 || x == nx - 1 || y == 0 || y == ny - 1;
        if (vector_rows && !face_row && grid.row_clear(x, y)) {
          prefetch_wrap_columns(grid, ctx, x, y, nz);
          fused_cap_node(ctx, collide, src0, ctx.cap_offset_lo);
          fused_row_simd(grid, ctx, tau, mrt, src0 + 1,
                         static_cast<Size>(nz - 2), ctx.offset);
          fused_cap_node(ctx, collide, src0 + static_cast<Size>(nz - 1),
                         ctx.cap_offset_hi);
        } else if (cap_rows && !face_row && grid.row_cap_clear(x, y)) {
          // Solids only at the z caps of the neighborhood (the walled
          // boundaries): the run [2, nz-2) streams entirely into the
          // solid-free interior band [1, nz-1), so the block kernels
          // take it; z in {0, 1, nz-2, nz-1} keep the checked path.
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, 0);
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, 1);
          fused_row_simd(grid, ctx, tau, mrt, src0 + 2,
                         static_cast<Size>(nz - 4), ctx.offset);
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, nz - 2);
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, nz - 1);
        } else if (vector_rows && face_row && grid.row_wrap_clear(x, y)) {
          // Grid-face row with a fully solid-free wrapped neighborhood
          // (e.g. every edge row of a periodic grid): identical to the
          // clear-row path with the x/y wrap folded into per-row
          // offsets.
          std::ptrdiff_t off[kQ], cap_lo[kQ], cap_hi[kQ];
          build_row_wrap_offsets(grid, ctx, x, y, off, cap_lo, cap_hi);
          prefetch_wrap_columns(grid, ctx, x, y, nz);
          fused_cap_node(ctx, collide, src0, cap_lo);
          fused_row_simd(grid, ctx, tau, mrt, src0 + 1,
                         static_cast<Size>(nz - 2), off);
          fused_cap_node(ctx, collide, src0 + static_cast<Size>(nz - 1),
                         cap_hi);
        } else if (cap_rows && face_row && grid.row_wrap_cap_clear(x, y)) {
          // Face row whose wrapped neighborhood is solid-free in the
          // interior z band (e.g. the x-periodic face rows of a
          // channel): vectorize [2, nz-2) with wrap-folded offsets.
          std::ptrdiff_t off[kQ], cap_lo[kQ], cap_hi[kQ];
          build_row_wrap_offsets(grid, ctx, x, y, off, cap_lo, cap_hi);
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, 0);
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, 1);
          fused_row_simd(grid, ctx, tau, mrt, src0 + 2,
                         static_cast<Size>(nz - 4), off);
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, nz - 2);
          slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, nz - 1);
        } else {
          const Real* msrc[kQ];
          Real* mdst[kQ];
          if (cap_rows &&
              build_mixed_row_dsts(grid, ctx, x, y, src0 + 2, msrc,
                                   mdst)) {
            // Wall-adjacent row (every target row is a full wall or
            // interior-free): bounce-back folds into the destination
            // planes, so the interior run still takes the block kernels.
            slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, 0);
            slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, 1);
            fused_run_kernels(grid, tau, mrt, src0 + 2,
                              static_cast<Size>(nz - 4), msrc, mdst);
            slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y,
                             nz - 2);
            slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y,
                             nz - 1);
          } else {
            for (Index z = 0; z < nz; ++z) {
              slab_node_scalar(grid, ctx, collide, nx, ny, nz, x, y, z);
            }
          }
        }
      }
    }
  }
}

}  // namespace lbmib
