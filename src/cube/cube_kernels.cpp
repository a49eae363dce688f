#include "cube/cube_kernels.hpp"

#include <cstring>

#include "common/aligned_buffer.hpp"
#include "cube/cube_grid.hpp"
#include "cube/spread_bins.hpp"
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
  // and the dataflow task graph never changes parity mid-graph
  // (DESIGN.md §12).
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

/// The support walk every kernel-4 flavour and kernel 8 share: the
/// influential domain of one point, resolved into cube coordinates with
/// no division. Each axis's 4 lattice indices are wrapped (no `%` when
/// already in range) and split by the grid's axis tables. The 4 z-targets
/// of a support column are cut into runs of consecutive local nodes of
/// one cube: one run, or two where the column crosses a cube face or
/// the periodic boundary (up to four at cube size 1).
struct CubeSupport {
  InfluenceDomain d;
  CubeGrid::AxisCoord at[3][4];  ///< per axis, per lattice offset
  int runs;                      ///< z-runs per column
  int run_start[5];              ///< run r: offsets [run_start[r], [r+1])

  CubeSupport(const CubeGrid& grid, const Vec3& pos)
      : d(influence_domain(pos)) {
    const Index extents[3] = {grid.nx(), grid.ny(), grid.nz()};
    for (int axis = 0; axis < 3; ++axis) {
      for (int a = 0; a < 4; ++a) {
        at[axis][a] = grid.split(
            axis, FluidGrid::wrap(d.base[axis] + a, extents[axis]));
      }
    }
    runs = 0;
    for (int c = 0; c < 4; ++c) {
      if (c == 0 || at[2][c].cube != at[2][c - 1].cube ||
          at[2][c].local != at[2][c - 1].local + 1) {
        run_start[runs++] = c;
      }
    }
    run_start[runs] = 4;
  }
};

/// One z-run of a support column: `n` targets from node `local` of
/// `cube` (cube coordinate (cx, cy, cz)), weighted by w[0..n).
struct ZRun {
  Size cube;
  Size local;
  const Real* w;
  int n;
  Index cx, cy, cz;
};

/// Kernel 4 for one fiber node at `pos`: hand every z-run of its support
/// to `add` in a -> b -> c order, skipping columns of zero weight, so the
/// targets are visited in the order the planar spread adds them.
template <class AddRun>
void spread_node(const CubeGrid& grid, const Vec3& pos, AddRun&& add) {
  const CubeSupport s(grid, pos);
  const Index k = grid.cube_size();
  const Index ncy = grid.cubes_y(), ncz = grid.cubes_z();
  for (int a = 0; a < 4; ++a) {
    const Real wa = s.d.wx[a];
    if (wa == Real{0}) continue;
    for (int b = 0; b < 4; ++b) {
      const Real wab = wa * s.d.wy[b];
      if (wab == Real{0}) continue;
      const Index cube_xy = (s.at[0][a].cube * ncy + s.at[1][b].cube) * ncz;
      const Index local_xy = (s.at[0][a].local * k + s.at[1][b].local) * k;
      Real w[4];
      for (int c = 0; c < 4; ++c) w[c] = wab * s.d.wz[c];
      for (int r = 0; r < s.runs; ++r) {
        const int c0 = s.run_start[r];
        const CubeGrid::AxisCoord& z = s.at[2][c0];
        add(ZRun{static_cast<Size>(cube_xy + z.cube),
                 static_cast<Size>(local_xy + z.local), w + c0,
                 s.run_start[r + 1] - c0, s.at[0][a].cube, s.at[1][b].cube,
                 z.cube});
      }
    }
  }
}

/// Kernel 4 over fibers [fiber_begin, fiber_end) in fiber -> node order.
template <class AddRun>
void cube_spread_impl(const FiberSheet& sheet, const CubeGrid& grid,
                      Index fiber_begin, Index fiber_end, AddRun&& add) {
  const Real area = sheet.node_area();
  for (Index f = fiber_begin; f < fiber_end; ++f) {
    for (Index j = 0; j < sheet.nodes_per_fiber(); ++j) {
      const Size node_id = sheet.id(f, j);
      const Vec3 force = area * sheet.elastic_force(node_id);
      spread_node(grid, sheet.position(node_id),
                  [&](const ZRun& r) { add(r, force); });
    }
  }
}

}  // namespace

void cube_spread_force(const FiberSheet& sheet, CubeGrid& grid,
                       const CubeDistribution& dist,
                       std::span<SpinLock> locks, Index fiber_begin,
                       Index fiber_end) {
  cube_spread_impl(
      sheet, grid, fiber_begin, fiber_end,
      [&](const ZRun& r, const Vec3& force) {
        const int owner = dist.cube2thread(r.cx, r.cy, r.cz);
        SpinLock& lock = locks[static_cast<Size>(owner)];
        SpinLockGuard guard(lock);
        grid.add_force_run_locked(lock, owner, r.cube, r.local, r.w, r.n,
                                  force);
      });
}

void cube_spread_force_unlocked(const FiberSheet& sheet, CubeGrid& grid,
                                Index fiber_begin, Index fiber_end) {
  cube_spread_impl(sheet, grid, fiber_begin, fiber_end,
                   [&](const ZRun& r, const Vec3& force) {
                     grid.add_force_run(r.cube, r.local, r.w, r.n, force);
                   });
}

void cube_spread_force_owned(const Structure& structure, CubeGrid& grid,
                             const SpreadBins& bins, int owner,
                             const Vec3& body_force) {
  for (const Size cube : bins.owned_cubes(owner)) {
    grid.reset_forces(cube, body_force);
  }
  const std::span<const int> cube_owner = bins.cube_owner();
  for (Size s = 0; s < structure.size(); ++s) {
    const FiberSheet& sheet = structure[s];
    const Real area = sheet.node_area();
    for (int t = 0; t < bins.threads(); ++t) {
      for (const std::uint32_t node : bins.nodes(s, t, owner)) {
        const Vec3 force = area * sheet.elastic_force(node);
        spread_node(grid, sheet.position(node), [&](const ZRun& r) {
          if (cube_owner[r.cube] != owner) return;
          grid.add_force_run(r.cube, r.local, r.w, r.n, force);
        });
      }
    }
  }
}

Vec3 cube_interpolate_velocity(const CubeGrid& grid, const Vec3& pos) {
  const CubeSupport s(grid, pos);
  const Index k = grid.cube_size();
  const Index ncy = grid.cubes_y(), ncz = grid.cubes_z();
  Vec3 u{};
  for (int a = 0; a < 4; ++a) {
    const Real wa = s.d.wx[a];
    if (wa == Real{0}) continue;
    for (int b = 0; b < 4; ++b) {
      const Real wab = wa * s.d.wy[b];
      if (wab == Real{0}) continue;
      const Index cube_xy = (s.at[0][a].cube * ncy + s.at[1][b].cube) * ncz;
      const Index local_xy = (s.at[0][a].local * k + s.at[1][b].local) * k;
      for (int c = 0; c < 4; ++c) {
        const Real w = wab * s.d.wz[c];
        if (w == Real{0}) continue;
        u += w * grid.velocity(static_cast<Size>(cube_xy + s.at[2][c].cube),
                               static_cast<Size>(local_xy + s.at[2][c].local));
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
