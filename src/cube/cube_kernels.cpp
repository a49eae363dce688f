#include "cube/cube_kernels.hpp"

#include <atomic>
#include <cstring>

#include "common/aligned_buffer.hpp"
#include "cube/cube_grid.hpp"
#include "ib/delta.hpp"
#include "ib/fiber_sheet.hpp"
#include "ib/spreading.hpp"
#include "lbm/collision.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/simd_kernels.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

void cube_collide(CubeGrid& grid, Real tau, Size cube,
                  const MrtOperator* mrt) {
  LBMIB_INSTRUMENT(
      inst::cube_kernel(grid, cube, StepPhase::kCollideStream,
                        RaceField::kDf, RaceAccess::kWrite,
                        "cube_collide: in-place df update");
      inst::cube_access(grid, cube, RaceField::kForce, RaceAccess::kRead,
                        "cube_collide: force read");)
  const Size m = grid.nodes_per_cube();
  Real* planes[kQ];
  for (int i = 0; i < kQ; ++i) {
    planes[i] = grid.slot(cube, grid.df_slot_base() + static_cast<Size>(i));
  }
  const Real* fx = grid.slot(cube, CubeGrid::kFxSlot);
  const Real* fy = grid.slot(cube, CubeGrid::kFySlot);
  const Real* fz = grid.slot(cube, CubeGrid::kFzSlot);
  for (Size local = 0; local < m; ++local) {
    if (grid.solid(cube, local)) continue;
    Real g[kQ];
    for (int i = 0; i < kQ; ++i) g[i] = planes[i][local];
    collide_node(g, tau, mrt, {fx[local], fy[local], fz[local]});
    for (int i = 0; i < kQ; ++i) planes[i][local] = g[i];
  }
}

namespace {

/// One axis of a direction's region decomposition for branch-free
/// streaming: source coordinates in [lo, hi] hop `dc` cubes along this
/// axis and land at source + shift in the destination cube.
struct AxisSegment {
  Index lo, hi;
  int dc;
  Index shift;
};

/// Split an axis of length k for a push offset in {-1, 0, +1} into the
/// in-cube segment and (if any) the single overflowing layer.
int axis_segments(Index k, int offset, AxisSegment out[2]) {
  if (offset == 0) {
    out[0] = {0, k - 1, 0, 0};
    return 1;
  }
  int n = 0;
  if (offset > 0) {
    if (k >= 2) out[n++] = {0, k - 2, 0, 1};
    out[n++] = {k - 1, k - 1, 1, 1 - k};
  } else {
    if (k >= 2) out[n++] = {1, k - 1, 0, -1};
    out[n++] = {0, 0, -1, k - 1};
  }
  return n;
}

/// Momentum correction for populations bouncing off the moving lid
/// (z = nz-1 plane): 2 w_dir rho_w (c_dir . u_lid)/cs^2 with rho_w = 1.
Real lid_correction(const Vec3& lid_velocity, int dir) {
  using namespace d3q19;
  return 2 * w[static_cast<Size>(dir)] * inv_cs2 *
         dot(c(dir), lid_velocity);
}

/// Kernel 6 on one cube, the one push every cube sweep shares: stream
/// the cube's 19 post-collision planes `from[dir]` (its own df slots, or
/// a collided scratch block) into the df_new field at slot base
/// `dst_base` of this cube and its 26 neighbours.
///
/// Each direction's push splits into at most eight rectangular regions
/// (axis_segments). Between two solid-free cubes a region is plain
/// memcpys: per z-row, or per y-range for cz = 0, or one per x-slab when
/// cy = 0 as well. Otherwise each z-row is cut into runs of nodes with
/// the same (source solid, destination solid) pair:
///   - fluid -> fluid: one memcpy;
///   - fluid -> solid: half-way bounce-back, one contiguous memcpy into
///     the opposite plane at the source nodes, less the moving-lid
///     correction for a target on the lid plane;
///   - solid sources push nothing. Their 19 dst slots are zeroed instead,
///     so the post-swap df keeps the reference invariant df[solid] == 0
///     (nothing else ever writes them).
/// Every dst slot has exactly one writer, so the order is free and the
/// result is bit-identical to the planar sweep's per-node pushes.
void push_cube(CubeGrid& grid, Size cube, const Real* const* from,
               Size dst_base) {
  using namespace d3q19;
  const Index k = grid.cube_size();
  const Size ks = static_cast<Size>(k);
  const Size m = grid.nodes_per_cube();
  const std::uint8_t* solid = grid.solid_mask(cube);
  const bool clear = !grid.cube_has_solid(cube);
  const bool has_lid = grid.has_lid();
  // Global z of this cube's first layer (for lid-plane detection).
  const Index gz0 = (static_cast<Index>(cube) % grid.cubes_z()) * k;
  Real* own[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    own[dir] = grid.slot(cube, dst_base + static_cast<Size>(dir));
  }

  // Rest particle, and the solid sources' zeroed slots.
  if (clear) {
    std::memcpy(own[0], from[0], m * sizeof(Real));
  } else {
    for (Size l = 0; l < m; ++l) {
      if (solid[l] != 0) {
        for (int dir = 0; dir < kQ; ++dir) own[dir][l] = 0.0;
      } else {
        own[0][l] = from[0][l];
      }
    }
  }

  for (int dir = 1; dir < kQ; ++dir) {
    const Real* src_plane = from[dir];
    Real* own_opp = own[opposite(dir)];
    const Real lid_corr =
        has_lid ? lid_correction(grid.lid_velocity(), dir) : Real{0};
    AxisSegment xs[2], ys[2], zs[2];
    const int nxs = axis_segments(k, cx[static_cast<Size>(dir)], xs);
    const int nys = axis_segments(k, cy[static_cast<Size>(dir)], ys);
    const int nzs = axis_segments(k, cz[static_cast<Size>(dir)], zs);
    for (int ix = 0; ix < nxs; ++ix) {
      for (int iy = 0; iy < nys; ++iy) {
        for (int iz = 0; iz < nzs; ++iz) {
          const AxisSegment& sx = xs[ix];
          const AxisSegment& sy = ys[iy];
          const AxisSegment& sz = zs[iz];
          const Size dest_cube =
              (sx.dc == 0 && sy.dc == 0 && sz.dc == 0)
                  ? cube
                  : grid.neighbor_cube(cube, sx.dc, sy.dc, sz.dc);
          Real* dst_plane =
              grid.slot(dest_cube, dst_base + static_cast<Size>(dir));
          const Size nx_seg = static_cast<Size>(sx.hi - sx.lo + 1);
          const Size ny_seg = static_cast<Size>(sy.hi - sy.lo + 1);
          const Size nz_seg = static_cast<Size>(sz.hi - sz.lo + 1);
          if (clear && !grid.cube_has_solid(dest_cube)) {
            if (nz_seg == ks && ny_seg == ks) {
              // cy = cz = 0: the x-slab is contiguous on both sides.
              std::memcpy(dst_plane + grid.local_id(sx.lo + sx.shift, 0, 0),
                          src_plane + grid.local_id(sx.lo, 0, 0),
                          nx_seg * ks * ks * sizeof(Real));
            } else if (nz_seg == ks) {
              // cz = 0: each x's y-range is contiguous on both sides.
              for (Index x = sx.lo; x <= sx.hi; ++x) {
                std::memcpy(
                    dst_plane +
                        grid.local_id(x + sx.shift, sy.lo + sy.shift, 0),
                    src_plane + grid.local_id(x, sy.lo, 0),
                    ny_seg * ks * sizeof(Real));
              }
            } else {
              for (Index x = sx.lo; x <= sx.hi; ++x) {
                for (Index y = sy.lo; y <= sy.hi; ++y) {
                  std::memcpy(dst_plane + grid.local_id(x + sx.shift,
                                                        y + sy.shift,
                                                        sz.lo + sz.shift),
                              src_plane + grid.local_id(x, y, sz.lo),
                              nz_seg * sizeof(Real));
                }
              }
            }
            continue;
          }
          // Source node z (segment-relative) lands at z in the
          // destination row; the lid plane is segment node lid_z, out of
          // range when this region cannot reach it.
          const Index lid_z =
              grid.nz() - 1 - (gz0 + sz.dc * k + sz.lo + sz.shift);
          const std::uint8_t* dest_solid = grid.solid_mask(dest_cube);
          for (Index x = sx.lo; x <= sx.hi; ++x) {
            for (Index y = sy.lo; y <= sy.hi; ++y) {
              const Size s0 = grid.local_id(x, y, sz.lo);
              const Size d0 = grid.local_id(x + sx.shift, y + sy.shift,
                                            sz.lo + sz.shift);
              for (Size z = 0; z < nz_seg;) {
                const std::uint8_t ss = solid[s0 + z];
                const std::uint8_t ds = dest_solid[d0 + z];
                Size end = z + 1;
                while (end < nz_seg && solid[s0 + end] == ss &&
                       dest_solid[d0 + end] == ds) {
                  ++end;
                }
                const Size n = end - z;
                if (ss == 0 && ds == 0) {
                  std::memcpy(dst_plane + d0 + z, src_plane + s0 + z,
                              n * sizeof(Real));
                } else if (ss == 0) {
                  std::memcpy(own_opp + s0 + z, src_plane + s0 + z,
                              n * sizeof(Real));
                  if (has_lid && lid_z >= static_cast<Index>(z) &&
                      lid_z < static_cast<Index>(end)) {
                    own_opp[s0 + static_cast<Size>(lid_z)] -= lid_corr;
                  }
                }
                z = end;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

void cube_stream(CubeGrid& grid, Size cube) {
  // Streaming also writes neighbour cubes' df_new, but each
  // (direction, destination-node) slot has a unique source, so the
  // pushes are commutative scatters for the race detector and only the
  // *own-cube* ownership and the phase are checked.
  LBMIB_INSTRUMENT(
      inst::cube_kernel(grid, cube, StepPhase::kCollideStream,
                        RaceField::kDfNew, RaceAccess::kScatter,
                        "cube_stream: df_new push");
      inst::cube_access(grid, cube, RaceField::kDf, RaceAccess::kRead,
                        "cube_stream: df read");
      inst::cube_scatter_neighborhood(grid, cube, RaceField::kDfNew,
                                      "cube_stream: df_new push");)
  const Real* df[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    df[dir] = grid.slot(cube, grid.df_slot_base() + static_cast<Size>(dir));
  }
  push_cube(grid, cube, df, grid.df_new_slot_base());
}

void cube_collide_stream(CubeGrid& grid, Real tau, Size cube, bool simd,
                         const MrtOperator* mrt) {
  cube_collide_stream(grid, tau, cube, grid.df_slot_base(),
                      grid.df_new_slot_base(), simd, mrt);
}

void cube_collide_stream(CubeGrid& grid, Real tau, Size cube, Size src_base,
                         Size dst_base, bool simd, const MrtOperator* mrt) {
  // Shadow fields are roles relative to the grid's current parity, like
  // the implicit kernels use: any parity change emits a write-all on both
  // fields, so role labels stay physically consistent between changes,
  // and the overlapped solver never changes parity mid-run (DESIGN.md
  // §12).
  LBMIB_INSTRUMENT(
      const RaceField src_field = (src_base == grid.df_slot_base())
                                      ? RaceField::kDf
                                      : RaceField::kDfNew;
      const RaceField dst_field = (dst_base == grid.df_slot_base())
                                      ? RaceField::kDf
                                      : RaceField::kDfNew;
      inst::cube_kernel(grid, cube, StepPhase::kCollideStream, dst_field,
                        RaceAccess::kScatter,
                        "cube_collide_stream: df_new push");
      inst::cube_access(grid, cube, src_field, RaceAccess::kRead,
                        "cube_collide_stream: df read");
      inst::cube_access(grid, cube, RaceField::kForce, RaceAccess::kRead,
                        "cube_collide_stream: force read");
      inst::cube_scatter_neighborhood(grid, cube, dst_field,
                                      "cube_collide_stream: df_new push");)
  // Collide the whole cube into a thread-local block (planes padded to
  // 64 B), then push it: the block kernel sees one contiguous run of m
  // nodes, and the source field stays untouched for the O(1) swap.
  const Size m = grid.nodes_per_cube();
  const Size stride = (m + 7) / 8 * 8;
  thread_local AlignedBuffer<Real> scratch;
  if (scratch.size() < static_cast<Size>(kQ) * stride) {
    scratch.reset_uninitialized(static_cast<Size>(kQ) * stride);
  }
  const Real* src[kQ];
  Real* post[kQ];
  for (int dir = 0; dir < kQ; ++dir) {
    src[dir] = grid.slot(cube, src_base + static_cast<Size>(dir));
    post[dir] = scratch.data() + static_cast<Size>(dir) * stride;
  }
  const Real* fx = grid.slot(cube, CubeGrid::kFxSlot);
  const Real* fy = grid.slot(cube, CubeGrid::kFySlot);
  const Real* fz = grid.slot(cube, CubeGrid::kFzSlot);
  if (simd) {
    // Solid lanes collide garbage (possibly 0/0) that push_cube never
    // reads.
    fused_block(src, post, fx, fy, fz, m, tau, mrt);
  } else {
    const std::uint8_t* solid = grid.solid_mask(cube);
    for (Size local = 0; local < m; ++local) {
      if (solid[local]) continue;
      Real g[kQ];
      for (int dir = 0; dir < kQ; ++dir) g[dir] = src[dir][local];
      collide_node(g, tau, mrt, {fx[local], fy[local], fz[local]});
      for (int dir = 0; dir < kQ; ++dir) post[dir][local] = g[dir];
    }
  }
  push_cube(grid, cube, post, dst_base);
}

void cube_update_velocity(CubeGrid& grid, Size cube) {
  cube_update_velocity(grid, cube, grid.df_new_slot_base());
}

void cube_update_velocity(CubeGrid& grid, Size cube, Size df_new_base) {
  LBMIB_INSTRUMENT(
      const RaceField src_field = (df_new_base == grid.df_slot_base())
                                      ? RaceField::kDf
                                      : RaceField::kDfNew;
      inst::cube_kernel(grid, cube, StepPhase::kUpdate, RaceField::kMacro,
                        RaceAccess::kWrite,
                        "cube_update_velocity: macroscopic write");
      inst::cube_access(grid, cube, src_field, RaceAccess::kRead,
                        "cube_update_velocity: streamed df read");
      inst::cube_access(grid, cube, RaceField::kForce, RaceAccess::kRead,
                        "cube_update_velocity: force read");)
  const Real* planes[kQ];
  for (int i = 0; i < kQ; ++i) {
    planes[i] = grid.slot(cube, df_new_base + static_cast<Size>(i));
  }
  update_moments(planes, grid.solid_mask(cube),
                 grid.slot(cube, CubeGrid::kFxSlot),
                 grid.slot(cube, CubeGrid::kFySlot),
                 grid.slot(cube, CubeGrid::kFzSlot),
                 grid.slot(cube, CubeGrid::kRhoSlot),
                 grid.slot(cube, CubeGrid::kUxSlot),
                 grid.slot(cube, CubeGrid::kUySlot),
                 grid.slot(cube, CubeGrid::kUzSlot),
                 grid.nodes_per_cube());
}

namespace {

/// Raw moments of a node's streamed distributions at slot base
/// `df_new_base` (the df_new field under the caller's parity).
void cube_streamed_moments(const CubeGrid& grid, Size cube, Size local,
                           Size df_new_base, Real& rho, Vec3& u) {
  using namespace d3q19;
  rho = 0.0;
  Vec3 mom{};
  for (int dir = 0; dir < kQ; ++dir) {
    const Real g =
        grid.slot(cube, df_new_base + static_cast<Size>(dir))[local];
    rho += g;
    mom += g * c(dir);
  }
  u = mom / rho;
}

}  // namespace

void cube_apply_inlet_outlet(CubeGrid& grid, const Vec3& inlet_velocity,
                             Size cube) {
  cube_apply_inlet_outlet(grid, inlet_velocity, cube,
                          grid.df_new_slot_base());
}

void cube_apply_inlet_outlet(CubeGrid& grid, const Vec3& inlet_velocity,
                             Size cube, Size df_new_base) {
  const Index k = grid.cube_size();
  const Index ncy = grid.cubes_y(), ncz = grid.cubes_z();
  const Index ccx = static_cast<Index>(cube) / (ncy * ncz);
  LBMIB_INSTRUMENT(
      const RaceField f = (df_new_base == grid.df_slot_base())
                              ? RaceField::kDf
                              : RaceField::kDfNew;
      inst::cube_kernel(grid, cube, StepPhase::kUpdate, f,
                        RaceAccess::kWrite,
                        "cube_apply_inlet_outlet: boundary rewrite");
      inst::cube_access(grid, cube, f, RaceAccess::kRead,
                        "cube_apply_inlet_outlet: streamed df read");
      // column_ref only leaves the cube when the upstream column of an
      // x-boundary cube falls outside it, i.e. for 1-wide cubes.
      if (k == 1 && ccx == 0) inst::cube_access(
          grid, grid.neighbor_cube(cube, 1, 0, 0), f, RaceAccess::kRead,
          "cube_apply_inlet_outlet: upstream-column read");
      if (k == 1 && ccx == grid.cubes_x() - 1) inst::cube_access(
          grid, grid.neighbor_cube(cube, -1, 0, 0), f, RaceAccess::kRead,
          "cube_apply_inlet_outlet: upstream-column read");)

  // Neighbouring column inside or across the cube for local x-offset +-1.
  auto column_ref = [&](Index lx_target, Index ly, Index lz, int dc)
      -> CubeGrid::NodeRef {
    if (lx_target >= 0 && lx_target < k) {
      return {cube, grid.local_id(lx_target, ly, lz)};
    }
    const Size ncube = grid.neighbor_cube(cube, dc, 0, 0);
    const Index wrapped = lx_target < 0 ? lx_target + k : lx_target - k;
    return {ncube, grid.local_id(wrapped, ly, lz)};
  };

  if (ccx == 0) {
    // Velocity inlet at the local (x=1) density; mirrors
    // apply_inlet_outlet exactly.
    for (Index ly = 0; ly < k; ++ly) {
      for (Index lz = 0; lz < k; ++lz) {
        const Size local = grid.local_id(0, ly, lz);
        if (grid.solid(cube, local)) continue;
        const CubeGrid::NodeRef nb = column_ref(1, ly, lz, 1);
        Real rho_b;
        Vec3 u_ignored;
        cube_streamed_moments(grid, nb.cube, nb.local, df_new_base, rho_b,
                              u_ignored);
        for (int dir = 0; dir < kQ; ++dir) {
          grid.slot(cube, df_new_base + static_cast<Size>(dir))[local] =
              d3q19::equilibrium(dir, rho_b, inlet_velocity);
        }
      }
    }
  }
  if (ccx == grid.cubes_x() - 1) {
    // Pressure outlet: rho = 1, velocity extrapolated from upstream.
    for (Index ly = 0; ly < k; ++ly) {
      for (Index lz = 0; lz < k; ++lz) {
        const Size local = grid.local_id(k - 1, ly, lz);
        if (grid.solid(cube, local)) continue;
        const CubeGrid::NodeRef up = column_ref(k - 2, ly, lz, -1);
        Real rho_up;
        Vec3 u_up;
        cube_streamed_moments(grid, up.cube, up.local, df_new_base, rho_up,
                              u_up);
        for (int dir = 0; dir < kQ; ++dir) {
          grid.slot(cube, df_new_base + static_cast<Size>(dir))[local] =
              d3q19::equilibrium(dir, Real{1}, u_up);
        }
      }
    }
  }
}

void cube_copy_distributions(CubeGrid& grid, Size cube) {
  LBMIB_INSTRUMENT(
      inst::cube_kernel(grid, cube, StepPhase::kMoveCopy, RaceField::kDf,
                        RaceAccess::kWrite,
                        "cube_copy_distributions: df write");
      inst::cube_access(grid, cube, RaceField::kDfNew, RaceAccess::kRead,
                        "cube_copy_distributions: df_new read");)
  // The 19 df slots and 19 df_new slots are each contiguous within the
  // cube block under either swap parity, so one memcpy moves the whole
  // new buffer back.
  std::memcpy(grid.slot(cube, grid.df_slot_base()),
              grid.slot(cube, grid.df_new_slot_base()),
              static_cast<Size>(kQ) * grid.nodes_per_cube() * sizeof(Real));
}

namespace {

/// Cube and local coordinates of each influential-domain offset, resolved
/// once per axis (12 divisions per fiber node instead of 6 per touched
/// fluid node).
struct DomainAxes {
  Index cube_c[3][4];
  Index local_c[3][4];
};

DomainAxes resolve_domain(const CubeGrid& grid, const InfluenceDomain& d) {
  const Index dims[3] = {grid.nx(), grid.ny(), grid.nz()};
  const Index k = grid.cube_size();
  DomainAxes out;
  for (int axis = 0; axis < 3; ++axis) {
    for (int a = 0; a < 4; ++a) {
      const Index g = FluidGrid::wrap(d.base[axis] + a, dims[axis]);
      out.cube_c[axis][a] = g / k;
      out.local_c[axis][a] = g % k;
    }
  }
  return out;
}

/// Spread filter of the single-writer, locked and atomic kernels: every
/// fiber node, every target cube.
struct AllCubes {
  bool touches(const Vec3&) const { return true; }
  bool keeps(Size) const { return true; }
};

/// Owner-computes filter: keep only targets in cubes `owner[cube] == tid`.
struct OwnedCubes {
  const CubeGrid& grid;
  std::span<const int> owner;
  int tid;

  bool keeps(Size cube) const { return owner[cube] == tid; }

  /// Per-node early reject: does the support of a node at `pos` reach any
  /// owned cube? Visits every distinct cube its 4 lattice indices per
  /// axis fall in (up to 4 at cube_size 1, not just the two end cubes),
  /// with bases from influence_base so the clamp path agrees with
  /// influence_domain.
  bool touches(const Vec3& pos) const {
    const Index k = grid.cube_size();
    const Real coords[3] = {pos.x, pos.y, pos.z};
    const Index dims[3] = {grid.nx(), grid.ny(), grid.nz()};
    const Index cubes[3] = {grid.cubes_x(), grid.cubes_y(), grid.cubes_z()};
    Index first[3], count[3];
    for (int axis = 0; axis < 3; ++axis) {
      const Index g = FluidGrid::wrap(influence_base(coords[axis]),
                                      dims[axis]);
      first[axis] = g / k;
      count[axis] = (g % k + 3) / k + 1;
    }
    for (Index a = 0; a < count[0]; ++a) {
      const Index cx = FluidGrid::wrap(first[0] + a, cubes[0]);
      for (Index b = 0; b < count[1]; ++b) {
        const Index cy = FluidGrid::wrap(first[1] + b, cubes[1]);
        for (Index c = 0; c < count[2]; ++c) {
          const Index cz = FluidGrid::wrap(first[2] + c, cubes[2]);
          if (keeps(grid.cube_id(cx, cy, cz))) return true;
        }
      }
    }
    return false;
  }
};

/// Kernel 4 over fibers [fiber_begin, fiber_end) in fiber -> node -> a ->
/// b -> c order, handing each weighted force that `filter` keeps to `add`.
template <class AddForce, class Filter = AllCubes>
void cube_spread_impl(const FiberSheet& sheet, CubeGrid& grid,
                      Index fiber_begin, Index fiber_end, AddForce&& add,
                      const Filter& filter = {}) {
  const Real area = sheet.node_area();
  const Index k = grid.cube_size();
  const Index ncy = grid.cubes_y(), ncz = grid.cubes_z();
  for (Index f = fiber_begin; f < fiber_end; ++f) {
    for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
      const Size node_id = sheet.id(f, j);
      const Vec3& pos = sheet.position(node_id);
      if (!filter.touches(pos)) continue;
      const Vec3 force = area * sheet.elastic_force(node_id);
      const InfluenceDomain d = influence_domain(pos);
      const DomainAxes ax = resolve_domain(grid, d);
      for (int a = 0; a < 4; ++a) {
        const Real wa = d.wx[a];
        if (wa == Real{0}) continue;
        for (int b = 0; b < 4; ++b) {
          const Real wab = wa * d.wy[b];
          if (wab == Real{0}) continue;
          const Index cube_xy =
              (ax.cube_c[0][a] * ncy + ax.cube_c[1][b]) * ncz;
          const Index local_xy =
              (ax.local_c[0][a] * k + ax.local_c[1][b]) * k;
          for (int c = 0; c < 4; ++c) {
            const Real w = wab * d.wz[c];
            if (w == Real{0}) continue;
            const CubeGrid::NodeRef r{
                static_cast<Size>(cube_xy + ax.cube_c[2][c]),
                static_cast<Size>(local_xy + ax.local_c[2][c])};
            if (!filter.keeps(r.cube)) continue;
            add(r, w * force);
          }
        }
      }
    }
  }
}

}  // namespace

void cube_spread_force(const FiberSheet& sheet, CubeGrid& grid,
                       const CubeDistribution& dist,
                       std::span<SpinLock> locks, Index fiber_begin,
                       Index fiber_end) {
  const Index ncy = grid.cubes_y(), ncz = grid.cubes_z();
  cube_spread_impl(
      sheet, grid, fiber_begin, fiber_end,
      [&](const CubeGrid::NodeRef& r, const Vec3& f) {
        const Index cx = static_cast<Index>(r.cube) / (ncy * ncz);
        const Index cy = (static_cast<Index>(r.cube) / ncz) % ncy;
        const Index cz = static_cast<Index>(r.cube) % ncz;
        const int owner = dist.cube2thread(cx, cy, cz);
        SpinLockGuard guard(locks[static_cast<Size>(owner)]);
        grid.add_force_locked(locks[static_cast<Size>(owner)], owner,
                              r.cube, r.local, f);
      });
}

void cube_spread_force_unlocked(const FiberSheet& sheet, CubeGrid& grid,
                                Index fiber_begin, Index fiber_end) {
  cube_spread_impl(sheet, grid, fiber_begin, fiber_end,
                   [&](const CubeGrid::NodeRef& r, const Vec3& f) {
                     grid.add_force(r.cube, r.local, f);
                   });
}

void cube_spread_force_owned(const FiberSheet& sheet, CubeGrid& grid,
                             std::span<const int> cube_owner, int tid) {
  cube_spread_impl(sheet, grid, 0, sheet.num_fibers(),
                   [&](const CubeGrid::NodeRef& r, const Vec3& f) {
                     grid.add_force(r.cube, r.local, f);
                   },
                   OwnedCubes{grid, cube_owner, tid});
}

void cube_spread_force_atomic(const FiberSheet& sheet, CubeGrid& grid,
                              Index fiber_begin, Index fiber_end) {
  // One coarse scatter over every cube per call: the atomic adds commute
  // with each other, and per-add events would cost 3 shadow lookups per
  // touched node. Coarsening a scatter only widens its footprint, which
  // can never hide a conflict with a read or write.
  LBMIB_RACE_CHECK(race::access_range(&grid, 0, grid.num_cubes(),
                                      RaceField::kForce,
                                      RaceAccess::kScatter,
                                      "cube_spread_force_atomic");)
  cube_spread_impl(
      sheet, grid, fiber_begin, fiber_end,
      [&](const CubeGrid::NodeRef& r, const Vec3& f) {
        std::atomic_ref<Real>(grid.slot(r.cube, CubeGrid::kFxSlot)[r.local])
            .fetch_add(f.x, std::memory_order_relaxed);
        std::atomic_ref<Real>(grid.slot(r.cube, CubeGrid::kFySlot)[r.local])
            .fetch_add(f.y, std::memory_order_relaxed);
        std::atomic_ref<Real>(grid.slot(r.cube, CubeGrid::kFzSlot)[r.local])
            .fetch_add(f.z, std::memory_order_relaxed);
      });
}

Vec3 cube_interpolate_velocity(const CubeGrid& grid, const Vec3& pos) {
  const InfluenceDomain d = influence_domain(pos);
  const DomainAxes ax = resolve_domain(grid, d);
  const Index k = grid.cube_size();
  const Index ncy = grid.cubes_y(), ncz = grid.cubes_z();
  Vec3 u{};
  for (int a = 0; a < 4; ++a) {
    const Real wa = d.wx[a];
    if (wa == Real{0}) continue;
    for (int b = 0; b < 4; ++b) {
      const Real wab = wa * d.wy[b];
      if (wab == Real{0}) continue;
      const Index cube_xy = (ax.cube_c[0][a] * ncy + ax.cube_c[1][b]) * ncz;
      const Index local_xy = (ax.local_c[0][a] * k + ax.local_c[1][b]) * k;
      for (int c = 0; c < 4; ++c) {
        const Real w = wab * d.wz[c];
        if (w == Real{0}) continue;
        u += w * grid.velocity(
                     static_cast<Size>(cube_xy + ax.cube_c[2][c]),
                     static_cast<Size>(local_xy + ax.local_c[2][c]));
      }
    }
  }
  return u;
}

void cube_move_fibers(FiberSheet& sheet, const CubeGrid& grid,
                      Index fiber_begin, Index fiber_end, Real dt) {
  // Interpolation touches the 64-node influence domain of every owned
  // fiber node; model it as one read of every cube's macroscopic field
  // (sound over-approximation, see DESIGN.md §12).
  LBMIB_RACE_CHECK(race::access_range(&grid, 0, grid.num_cubes(),
                                      RaceField::kMacro, RaceAccess::kRead,
                                      "cube_move_fibers: velocity read");)
  for (Index f = fiber_begin; f < fiber_end; ++f) {
    for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
      const Size i = sheet.id(f, j);
      if (sheet.immobile(i)) continue;
      const Vec3 u = cube_interpolate_velocity(grid, sheet.position(i));
      sheet.position(i) += dt * u;
    }
  }
}

}  // namespace lbmib
