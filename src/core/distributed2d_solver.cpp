#include "core/distributed2d_solver.hpp"

#include "common/error.hpp"
#include "core/instrument.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/interpolation.hpp"
#include "ib/spreading.hpp"
#include "lbm/boundary.hpp"
#include "lbm/collision.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fused.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/streaming.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {

namespace {

// Populations crossing each face / corner of an (x, y) tile.
constexpr int kDirsPlusX[5] = {1, 7, 9, 11, 13};
constexpr int kDirsMinusX[5] = {2, 8, 10, 12, 14};
constexpr int kDirsPlusY[5] = {3, 7, 10, 15, 17};
constexpr int kDirsMinusY[5] = {4, 8, 9, 16, 18};
constexpr int kDirPXPY = 7;   // (+1, +1)
constexpr int kDirPXMY = 9;   // (+1, -1)
constexpr int kDirMXPY = 10;  // (-1, +1)
constexpr int kDirMXMY = 8;   // (-1, -1)

// Message tags (direction of travel).
constexpr int kTagFacePX = 1, kTagFaceMX = 2;
constexpr int kTagFacePY = 3, kTagFaceMY = 4;
constexpr int kTagCornerPP = 5, kTagCornerPM = 6;
constexpr int kTagCornerMP = 7, kTagCornerMM = 8;
constexpr int kTagMoveReduce = 9;

/// Rx x Ry factorization of `n` with Rx >= Ry as balanced as possible.
std::pair<int, int> balanced_2d(int n) {
  int best_p = n, best_q = 1;
  for (int q = 1; q * q <= n; ++q) {
    if (n % q == 0) {
      best_q = q;
      best_p = n / q;
    }
  }
  return {best_p, best_q};
}

}  // namespace

Distributed2DSolver::Distributed2DSolver(const SimulationParams& params,
                                         Mesh mesh)
    : Solver(params),
      mesh_(mesh),
      comm_(params.num_threads),
      barrier_(params.num_threads) {
  const auto [rx, ry] = mesh == Mesh::kSlabs
                            ? std::pair<int, int>{params.num_threads, 1}
                            : balanced_2d(params.num_threads);
  rx_ = rx;
  ry_ = ry;
  require(params.nx >= rx_ && params.ny >= ry_,
          "the rank mesh needs at least one column per rank in each axis");
  if (uses_inlet_outlet(params.boundary)) {
    require(params.nx / rx_ >= 2,
            "inlet/outlet needs two x-columns on the boundary ranks");
  }

  ranks_.resize(static_cast<Size>(params.num_threads));
  for (int r = 0; r < params.num_threads; ++r) {
    const int tx = r / ry_, ty = r % ry_;
    Rank& rank = ranks_[static_cast<Size>(r)];
    rank.tile = OwnedBox::ghosted_tile(
        params.nx * tx / rx_, params.nx * (tx + 1) / rx_,
        params.ny * ty / ry_, params.ny * (ty + 1) / ry_, params.nx,
        params.ny);
    const Index lnx = rank.tile.x_hi - rank.tile.x_lo;
    const Index lny = rank.tile.y_hi - rank.tile.y_lo;
    rank.grid = std::make_unique<FluidGrid>(lnx + 2, lny + 2, params.nz,
                                            params.rho0,
                                            params.initial_velocity);
    // Mask every local cell (ghosts included) by its global position.
    for (Index lx = 0; lx <= lnx + 1; ++lx) {
      const Index gx = FluidGrid::wrap(rank.tile.x_lo + lx - 1, params.nx);
      for (Index ly = 0; ly <= lny + 1; ++ly) {
        const Index gy =
            FluidGrid::wrap(rank.tile.y_lo + ly - 1, params.ny);
        for (Index gz = 0; gz < params.nz; ++gz) {
          if (is_boundary_solid(params, gx, gy, gz)) {
            rank.grid->set_solid(rank.grid->index(lx, ly, gz), true);
          }
        }
      }
    }
    if (params.boundary == BoundaryType::kCavity) {
      rank.grid->set_lid_velocity(params.lid_velocity);
    }
    rank.grid->reset_forces(params.body_force);
    rank.structure = make_structure(params);
  }
}

Distributed2DSolver::Tile Distributed2DSolver::tile_of(int rank) const {
  return ranks_[static_cast<Size>(rank)].tile;
}

void Distributed2DSolver::exchange_halos(int rank) {
  using namespace d3q19;
  LBMIB_TRACE_ON(if (obs::Tracer::active()) {
    obs::metric_halo_exchanges().inc(8.0);  // 4 faces + 4 corners
  })
  Rank& r = ranks_[static_cast<Size>(rank)];
  FluidGrid& grid = *r.grid;
  const Index lnx = r.tile.x_hi - r.tile.x_lo;
  const Index lny = r.tile.y_hi - r.tile.y_lo;
  const Index nz = grid.nz();
  const int tx = rank / ry_, ty = rank % ry_;

  // The tile grid is rank-private, so one coarse read (packing the ghost
  // shell) and one write (unpacking into the real edge columns) record
  // the exchange; cross-rank ordering rides on the channel hooks.
  LBMIB_RACE_CHECK(
      race::access_range(&grid, 0, static_cast<Size>(lnx) + 2,
                         RaceField::kDfNew, RaceAccess::kRead,
                         "exchange_halos: pack");
      race::access_range(&grid, 1, static_cast<Size>(lnx) + 1,
                         RaceField::kDfNew, RaceAccess::kWrite,
                         "exchange_halos: unpack");)

  // --- pack -----------------------------------------------------------
  auto pack_x_face = [&](Index lx, const int dirs[5]) {
    std::vector<Real> data(5 * static_cast<Size>(lny) *
                           static_cast<Size>(nz));
    Size i = 0;
    for (int d = 0; d < 5; ++d) {
      for (Index ly = 1; ly <= lny; ++ly) {
        for (Index z = 0; z < nz; ++z) {
          data[i++] = grid.df_new(dirs[d], grid.index(lx, ly, z));
        }
      }
    }
    return data;
  };
  auto pack_y_face = [&](Index ly, const int dirs[5]) {
    std::vector<Real> data(5 * static_cast<Size>(lnx) *
                           static_cast<Size>(nz));
    Size i = 0;
    for (int d = 0; d < 5; ++d) {
      for (Index lx = 1; lx <= lnx; ++lx) {
        for (Index z = 0; z < nz; ++z) {
          data[i++] = grid.df_new(dirs[d], grid.index(lx, ly, z));
        }
      }
    }
    return data;
  };
  auto pack_corner = [&](Index lx, Index ly, int dir) {
    std::vector<Real> data(static_cast<Size>(nz));
    for (Index z = 0; z < nz; ++z) {
      data[static_cast<Size>(z)] = grid.df_new(dir, grid.index(lx, ly, z));
    }
    return data;
  };

  comm_.send(rank, rank_id(tx + 1, ty),
             Message{kTagFacePX, pack_x_face(lnx + 1, kDirsPlusX)});
  comm_.send(rank, rank_id(tx - 1, ty),
             Message{kTagFaceMX, pack_x_face(0, kDirsMinusX)});
  comm_.send(rank, rank_id(tx, ty + 1),
             Message{kTagFacePY, pack_y_face(lny + 1, kDirsPlusY)});
  comm_.send(rank, rank_id(tx, ty - 1),
             Message{kTagFaceMY, pack_y_face(0, kDirsMinusY)});
  comm_.send(rank, rank_id(tx + 1, ty + 1),
             Message{kTagCornerPP, pack_corner(lnx + 1, lny + 1, kDirPXPY)});
  comm_.send(rank, rank_id(tx + 1, ty - 1),
             Message{kTagCornerPM, pack_corner(lnx + 1, 0, kDirPXMY)});
  comm_.send(rank, rank_id(tx - 1, ty + 1),
             Message{kTagCornerMP, pack_corner(0, lny + 1, kDirMXPY)});
  comm_.send(rank, rank_id(tx - 1, ty - 1),
             Message{kTagCornerMM, pack_corner(0, 0, kDirMXMY)});

  // --- unpack ----------------------------------------------------------
  // A slot is taken from the face message only when its sending-side
  // source lies inside the sender's tile (diagonal edge slots arrive via
  // the corner messages instead) and is not a wall (wall-sourced slots
  // were bounce-filled locally).
  auto source_ok = [&](Index sx, Index sy, Index sz) {
    return !grid.solid(grid.index(sx, sy, sz));
  };
  auto unpack_x_face = [&](Index dst_lx, const int dirs[5],
                           const std::vector<Real>& data) {
    Size i = 0;
    for (int d = 0; d < 5; ++d) {
      const int dir = dirs[d];
      const Index cyd = cy[static_cast<Size>(dir)];
      const Index czd = cz[static_cast<Size>(dir)];
      for (Index ly = 1; ly <= lny; ++ly) {
        for (Index z = 0; z < nz; ++z, ++i) {
          const Size dst = grid.index(dst_lx, ly, z);
          if (grid.solid(dst)) continue;
          const Index sy = ly - cyd;
          if (sy < 1 || sy > lny) continue;  // corner-owned slot
          const Index sx = dst_lx == 1 ? 0 : lnx + 1;
          if (!source_ok(sx, sy, FluidGrid::wrap(z - czd, nz))) continue;
          grid.df_new(dir, dst) = data[i];
        }
      }
    }
  };
  auto unpack_y_face = [&](Index dst_ly, const int dirs[5],
                           const std::vector<Real>& data) {
    Size i = 0;
    for (int d = 0; d < 5; ++d) {
      const int dir = dirs[d];
      const Index cxd = cx[static_cast<Size>(dir)];
      const Index czd = cz[static_cast<Size>(dir)];
      for (Index lx = 1; lx <= lnx; ++lx) {
        for (Index z = 0; z < nz; ++z, ++i) {
          const Size dst = grid.index(lx, dst_ly, z);
          if (grid.solid(dst)) continue;
          const Index sx = lx - cxd;
          if (sx < 1 || sx > lnx) continue;  // corner-owned slot
          const Index sy = dst_ly == 1 ? 0 : lny + 1;
          if (!source_ok(sx, sy, FluidGrid::wrap(z - czd, nz))) continue;
          grid.df_new(dir, dst) = data[i];
        }
      }
    }
  };
  auto unpack_corner = [&](Index dst_lx, Index dst_ly, int dir,
                           const std::vector<Real>& data) {
    const Index czd = cz[static_cast<Size>(dir)];
    const Index sx = dst_lx == 1 ? 0 : lnx + 1;
    const Index sy = dst_ly == 1 ? 0 : lny + 1;
    for (Index z = 0; z < nz; ++z) {
      const Size dst = grid.index(dst_lx, dst_ly, z);
      if (grid.solid(dst)) continue;
      if (!source_ok(sx, sy, FluidGrid::wrap(z - czd, nz))) continue;
      grid.df_new(dir, dst) = data[static_cast<Size>(z)];
    }
  };

  unpack_x_face(1, kDirsPlusX,
                comm_.recv(rank, rank_id(tx - 1, ty), kTagFacePX).data);
  unpack_x_face(lnx, kDirsMinusX,
                comm_.recv(rank, rank_id(tx + 1, ty), kTagFaceMX).data);
  unpack_y_face(1, kDirsPlusY,
                comm_.recv(rank, rank_id(tx, ty - 1), kTagFacePY).data);
  unpack_y_face(lny, kDirsMinusY,
                comm_.recv(rank, rank_id(tx, ty + 1), kTagFaceMY).data);
  unpack_corner(
      1, 1, kDirPXPY,
      comm_.recv(rank, rank_id(tx - 1, ty - 1), kTagCornerPP).data);
  unpack_corner(
      1, lny, kDirPXMY,
      comm_.recv(rank, rank_id(tx - 1, ty + 1), kTagCornerPM).data);
  unpack_corner(
      lnx, 1, kDirMXPY,
      comm_.recv(rank, rank_id(tx + 1, ty - 1), kTagCornerMP).data);
  unpack_corner(
      lnx, lny, kDirMXMY,
      comm_.recv(rank, rank_id(tx + 1, ty + 1), kTagCornerMM).data);
}

void Distributed2DSolver::move_fibers_allreduce(Rank& r, int rank) {
  const Size total_nodes = structure_num_nodes(r.structure);
  if (total_nodes == 0) return;
  std::vector<Real> partial(3 * total_nodes, 0.0);

  Size base = 0;
  for (const FiberSheet& sheet : r.structure) {
    for (Size i = 0; i < sheet.num_nodes(); ++i) {
      const Vec3 u =
          interpolate_velocity(*r.grid, r.tile, sheet.position(i));
      partial[3 * (base + i) + 0] = u.x;
      partial[3 * (base + i) + 1] = u.y;
      partial[3 * (base + i) + 2] = u.z;
    }
    base += sheet.num_nodes();
  }

  const std::vector<Real> total =
      comm_.allreduce_sum(rank, std::move(partial), kTagMoveReduce);

  base = 0;
  for (FiberSheet& sheet : r.structure) {
    for (Size i = 0; i < sheet.num_nodes(); ++i) {
      if (sheet.immobile(i)) continue;
      sheet.position(i) += Vec3{total[3 * (base + i) + 0],
                                total[3 * (base + i) + 1],
                                total[3 * (base + i) + 2]};
    }
    base += sheet.num_nodes();
  }
}

void Distributed2DSolver::rank_entry(int rank, Index num_steps,
                                     const StepObserver& observer,
                                     Index observer_interval) {
  Rank& r = ranks_[static_cast<Size>(rank)];
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(rank)];
  FluidGrid& grid = *r.grid;
  const Index lnx = r.tile.x_hi - r.tile.x_lo;
  const Index lny = r.tile.y_hi - r.tile.y_lo;
  const Size row = static_cast<Size>(lny + 2) *
                   static_cast<Size>(grid.nz());

  // Contiguous real-node run for local x-row lx: ly in [1, lny], all z.
  auto row_range = [&](Index lx) {
    const Size begin = static_cast<Size>(lx) * row +
                       static_cast<Size>(grid.nz());
    const Size end =
        begin + static_cast<Size>(lny) * static_cast<Size>(grid.nz());
    return std::pair<Size, Size>{begin, end};
  };

  for (Index step = 0; step < num_steps; ++step) {
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(step));
    cancel_point("distributed2d:step");
    sync_point("distributed2d:step:start", rank, step);
    {  // kernels 1-4 on the replica, spread into own tile only
      KernelScope scope(prof, Phase::kFiberForcesSpread);
      for (FiberSheet& sheet : r.structure) {
        compute_bending_force(sheet, 0, sheet.num_fibers());
        compute_stretching_force(sheet, 0, sheet.num_fibers());
        compute_elastic_force(sheet, 0, sheet.num_fibers());
      }
      grid.reset_forces(params_.body_force);
      for (const FiberSheet& sheet : r.structure) {
        spread_force(sheet, grid, r.tile, 0, sheet.num_fibers());
      }
    }
    if (params_.fused_step) {
      // Kernels 5+6 as one pass over the real tile: the planar fused
      // sweep given the tile's x and y ranges, so x/y pushes land in the
      // ghost layers without wrapping and only z wraps — the same writes
      // as the reference stream_x_slab over the tile. The halo exchange
      // then ships the freshly-pushed crossing populations as in the
      // reference pipeline.
      KernelScope scope(prof, Phase::kCollideStream);
      fused_collide_stream_x_slab(grid, params_.tau, mrt_.get(), 1, lnx + 1,
                                  1, lny + 1, params_.simd_step,
                                  params_.tile_y);
    } else {
      {  // kernel 5
        KernelScope scope(prof, Phase::kCollide);
        for (Index lx = 1; lx <= lnx; ++lx) {
          const auto [begin, end] = row_range(lx);
          collide_range(grid, params_.tau, begin, end, mrt_.get());
        }
      }
      KernelScope scope(prof, Phase::kStream);  // kernel 6
      stream_x_slab(grid, 1, lnx + 1, 1, lny + 1);
    }
    // The 8-message halo exchange; its row bills kernel 6 as well.
    sync_point("distributed2d:halo", rank, step);
    {
      KernelScope scope(prof, Phase::kExchangeHalos,
                        static_cast<std::int64_t>(rank));
      exchange_halos(rank);
    }
    {  // kernel 7 (+ boundary pass)
      KernelScope scope(prof, Phase::kUpdateVelocity);
      if (uses_inlet_outlet(params_.boundary)) {
        apply_inlet_outlet(grid, r.tile, params_.inlet_velocity);
      }
      for (Index lx = 1; lx <= lnx; ++lx) {
        const auto [begin, end] = row_range(lx);
        update_velocity_range(grid, begin, end);
      }
    }
    {  // kernel 8
      KernelScope scope(prof, Phase::kMoveFibers);
      sync_point("distributed2d:allreduce", rank, step);
      move_fibers_allreduce(r, rank);
    }
    {  // kernel 9: per-rank O(1) swap when fused. The ghost layers' df
       // goes stale under the swap, but ghost df is never read —
       // collision touches only real nodes and the halo exchange reads
       // df_new.
      KernelScope scope(prof, params_.fused_step ? Phase::kSwapDf
                                                 : Phase::kCopyDf);
      if (params_.fused_step) {
        grid.swap_buffers();
      } else {
        for (Index lx = 1; lx <= lnx; ++lx) {
          const auto [begin, end] = row_range(lx);
          copy_distributions_range(grid, begin, end);
        }
      }
    }

    sync_point("distributed2d:barrier:step-end", rank, step, barrier_);
    if (rank == 0) ++steps_completed_;
    if (observer && ((step + 1) % observer_interval == 0)) {
      if (rank == 0) {
        structure_ = r.structure;
        observer(*this, steps_completed_ - 1);
      }
      barrier_.arrive_and_wait();
    }
  }
}

void Distributed2DSolver::run_loop(Index num_steps,
                                   const StepObserver& observer,
                                   Index observer_interval) {
  ThreadTeam team(params_.num_threads);
  team.run([&](int rank) {
    rank_entry(rank, num_steps, observer, observer_interval);
  });
  structure_ = ranks_[0].structure;
  merge_thread_profiles();
}

void Distributed2DSolver::step() { run_loop(1, nullptr, 1); }

void Distributed2DSolver::run(Index num_steps, const StepObserver& observer,
                              Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  if (num_steps <= 0) return;
  run_loop(num_steps, observer, observer_interval);
}

void Distributed2DSolver::restore_fluid(const FluidGrid& fluid) {
  // Refill every rank's tile INCLUDING the four ghost layers from the
  // wrapped global coordinates (the constructor's solid-mask rule):
  // correct for periodic axes, inert where the edge layers are walls.
  for (Rank& r : ranks_) {
    FluidGrid& grid = *r.grid;
    for (Index lx = 0; lx <= r.tile.x_hi - r.tile.x_lo + 1; ++lx) {
      const Index gx = FluidGrid::wrap(r.tile.x_lo + lx - 1, params_.nx);
      for (Index ly = 0; ly <= r.tile.y_hi - r.tile.y_lo + 1; ++ly) {
        const Index gy = FluidGrid::wrap(r.tile.y_lo + ly - 1, params_.ny);
        for (Index z = 0; z < params_.nz; ++z) {
          const Size src = fluid.index(gx, gy, z);
          const Size dst = grid.index(lx, ly, z);
          for (int dir = 0; dir < kQ; ++dir) {
            grid.df(dir, dst) = fluid.df(dir, src);
            grid.df_new(dir, dst) = fluid.df_new(dir, src);
          }
          grid.rho(dst) = fluid.rho(src);
          grid.set_velocity(dst, fluid.velocity(src));
          grid.fx(dst) = fluid.fx(src);
          grid.fy(dst) = fluid.fy(src);
          grid.fz(dst) = fluid.fz(src);
          grid.set_solid(dst, fluid.solid(src));
        }
      }
    }
  }
}

void Distributed2DSolver::restore_state(const FluidGrid& fluid,
                                        const Structure& structure,
                                        Index step) {
  Solver::restore_state(fluid, structure, step);
  for (Rank& r : ranks_) r.structure = structure_;
}

void Distributed2DSolver::snapshot_fluid(FluidGrid& out) const {
  require(out.nx() == params_.nx && out.ny() == params_.ny &&
              out.nz() == params_.nz,
          "snapshot grid dimensions do not match");
  for (const Rank& r : ranks_) {
    const FluidGrid& grid = *r.grid;
    for (Index gx = r.tile.x_lo; gx < r.tile.x_hi; ++gx) {
      for (Index gy = r.tile.y_lo; gy < r.tile.y_hi; ++gy) {
        const Index lx = gx - r.tile.x_lo + 1;
        const Index ly = gy - r.tile.y_lo + 1;
        for (Index z = 0; z < params_.nz; ++z) {
          const Size src = grid.index(lx, ly, z);
          const Size dst = out.index(gx, gy, z);
          for (int dir = 0; dir < kQ; ++dir) {
            out.df(dir, dst) = grid.df(dir, src);
            out.df_new(dir, dst) = grid.df_new(dir, src);
          }
          out.rho(dst) = grid.rho(src);
          out.set_velocity(dst, grid.velocity(src));
          out.fx(dst) = grid.fx(src);
          out.fy(dst) = grid.fy(src);
          out.fz(dst) = grid.fz(src);
          out.set_solid(dst, grid.solid(src));
        }
      }
    }
  }
}

}  // namespace lbmib
