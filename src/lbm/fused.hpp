// Fused collide-stream: kernels 5+6 in one pass over the lattice.
//
// The paper's pipeline collides in place over df (one full read+write
// sweep), streams df into df_new (another full read), then copies df_new
// back (kernel 9, a third full traversal). Collision only ever reads a
// node's OWN 19 populations and streaming only reads that node's
// post-collision values, so the two kernels fuse exactly: load the 19
// populations into registers, collide them there, and push the results
// straight into df_new with the same bounce-back / moving-lid / wrap
// handling as stream_x_slab. The df buffer is left untouched, which makes
// kernel 9 an O(1) buffer swap (FluidGrid::swap_buffers) instead of a
// 19-plane memcpy. The operator is the `(tau, mrt)` pair of every kernel-5
// entry (MRT when `mrt` is non-null, else BGK), and the scalar path
// collides through the same seam as the reference kernels (collide_node),
// so the scalar fused pipeline is bit-identical to collide_range +
// stream_x_slab + copy for BGK and MRT alike. One sweep serves every
// planar solver: whole grids, x-slabs, and (through the y-range overload)
// the distributed solver's ghosted tiles.
//
// Vectorization (DESIGN.md §16): when `simd` is set, rows whose
// FluidGrid::row_clear flag holds (interior in x/y, no solid anywhere in
// the 3x3 row neighborhood) hand their interior z-run [1, nz-1) to the
// lane-block seam of simd_kernels.hpp (fused_block) — the run is
// branch-free (every destination is src + offset, never solid, never
// lid-corrected), so the whole 19-direction collide + shifted scatter
// runs under `#pragma omp simd` over contiguous z. The two boundary columns (z = 0, nz-1) and
// every non-clear row take the scalar per-node path, whose expression
// trees the lane kernels mirror exactly. The planar sweep is additionally
// blocked into y-tiles sized so a tile's df working set fits the probed
// L2 cache (fused_auto_tile_y); since every (direction, destination)
// df_new slot has exactly one writer, re-ordering the traversal by tile
// cannot change any result bit.
//
// Swap correctness: one fused sweep writes every df_new slot of every
// fluid node exactly once (a neighbour's push, or the node's own
// bounce-back where the upstream neighbour is solid), so after the swap
// no stale fluid data survives. Solid nodes receive no pushes; the sweep
// zeroes their 19 df_new slots so the post-swap df matches the reference
// path's invariant df[solid] == 0.
//
// Race-freedom under x-slab partitioning is inherited from stream_x_slab:
// each (direction, destination) df_new slot has a unique source node, and
// a solid node's slots are written only by the node itself.
#pragma once

#include "common/types.hpp"

namespace lbmib {

class FluidGrid;
class MrtOperator;

/// Fused kernels 5+6 for every node with x in [x_begin, x_end): collide in
/// registers (MRT when `mrt` is non-null, else BGK at `tau`) and push into
/// df_new. Periodic wrap in all axes at the grid faces, exactly like
/// stream_x_slab. `simd` selects the lane-block fast path for clear rows
/// (false = scalar per-node loop everywhere, the A/B reference); `tile_y`
/// sets the y-extent of the cache-blocked traversal (0 = auto via
/// fused_auto_tile_y; tiling never changes results — every df_new slot has
/// a unique writer).
void fused_collide_stream_x_slab(FluidGrid& grid, Real tau,
                                 const MrtOperator* mrt, Index x_begin,
                                 Index x_end, bool simd = true,
                                 Index tile_y = 0);

/// Fused kernels 5+6 for every node with x in [x_begin, x_end) and y in
/// [y_begin, y_end), with the same boundary rules, `simd` and `tile_y`
/// (y-tiles start at y_begin). The distributed solver sweeps its real
/// tile this way, like stream_x_slab's y-range overload: on the ghosted
/// local grid a real row is never a grid-face row, so every x/y push lands
/// in the tile or its ghost ring and only z wraps.
void fused_collide_stream_x_slab(FluidGrid& grid, Real tau,
                                 const MrtOperator* mrt, Index x_begin,
                                 Index x_end, Index y_begin, Index y_end,
                                 bool simd = true, Index tile_y = 0);

/// Largest y-tile whose fused working set fits half the L2 cache: a tile
/// column sweeps 3 x-rows of both df buffers (19 planes each) per y, i.e.
/// 2 * 19 * 3 * nz * sizeof(Real) bytes per unit of y. The cache size is
/// probed once via sysconf(_SC_LEVEL2_CACHE_SIZE) with a 512 KiB fallback.
/// Clamped to [1, ny]; small grids get tile == ny (traversal identical to
/// the untiled sweep).
Index fused_auto_tile_y(Index ny, Index nz);

}  // namespace lbmib
