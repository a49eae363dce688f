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

// One halo message: the populations travelling by (ox, oy) in x and y,
// tagged by that direction of travel. A population travels with (ox, oy)
// when its velocity has cx = ox wherever ox != 0 and cy = oy wherever
// oy != 0: the 5 crossing an x or y face, or the 1 crossing an xy edge.
struct HaloRoute {
  int ox, oy, tag;
  int dirs[5];  // ascending
  int ndirs;
};

constexpr HaloRoute halo_route(int ox, int oy, int tag) {
  HaloRoute route{ox, oy, tag, {}, 0};
  for (int dir = 0; dir < kQ; ++dir) {
    if ((ox == 0 || d3q19::cx[static_cast<Size>(dir)] == ox) &&
        (oy == 0 || d3q19::cy[static_cast<Size>(dir)] == oy)) {
      route.dirs[route.ndirs++] = dir;
    }
  }
  return route;
}

// The 8 messages of a step in send order: 4 faces, then 4 corners.
constexpr HaloRoute kHaloRoutes[] = {
    halo_route(+1, 0, 1),  halo_route(-1, 0, 2),  halo_route(0, +1, 3),
    halo_route(0, -1, 4),  halo_route(+1, +1, 5), halo_route(+1, -1, 6),
    halo_route(-1, +1, 7), halo_route(-1, -1, 8)};
static_assert(kHaloRoutes[0].ndirs == 5 && kHaloRoutes[4].ndirs == 1);

constexpr int kTagMoveReduce = 9;

/// Inclusive local index range along one axis of a tile with n real
/// columns (ghosts at 0 and n + 1).
struct Span {
  Index lo, hi;
  Size size() const { return static_cast<Size>(hi - lo + 1); }
  bool contains(Index i) const { return i >= lo && i <= hi; }
};

/// Where a message travelling by o along the axis is packed: the ghost
/// layer on the neighbour's side, or the real columns when o == 0. A
/// receiver finds the message's sources in ghost_span(-o, n).
Span ghost_span(int o, Index n) {
  return o > 0 ? Span{n + 1, n + 1} : o < 0 ? Span{0, 0} : Span{1, n};
}

/// Where it is unpacked: the real edge it enters through.
Span edge_span(int o, Index n) {
  return o > 0 ? Span{1, 1} : o < 0 ? Span{n, n} : Span{1, n};
}

/// Every field of planar node `src` of `from` into node `dst` of `to`.
void copy_node(const FluidGrid& from, Size src, FluidGrid& to, Size dst) {
  for (int dir = 0; dir < kQ; ++dir) {
    to.df(dir, dst) = from.df(dir, src);
    to.df_new(dir, dst) = from.df_new(dir, src);
  }
  to.rho(dst) = from.rho(src);
  to.set_velocity(dst, from.velocity(src));
  to.fx(dst) = from.fx(src);
  to.fy(dst) = from.fy(src);
  to.fz(dst) = from.fz(src);
  to.set_solid(dst, from.solid(src));
}

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

  // One pack per message: the ghost cells on the neighbour's side.
  for (const HaloRoute& route : kHaloRoutes) {
    const Span xs = ghost_span(route.ox, lnx);
    const Span ys = ghost_span(route.oy, lny);
    std::vector<Real> data(static_cast<Size>(route.ndirs) * xs.size() *
                           ys.size() * static_cast<Size>(nz));
    Size i = 0;
    for (int d = 0; d < route.ndirs; ++d) {
      for (Index lx = xs.lo; lx <= xs.hi; ++lx) {
        for (Index ly = ys.lo; ly <= ys.hi; ++ly) {
          for (Index z = 0; z < nz; ++z) {
            data[i++] = grid.df_new(route.dirs[d], grid.index(lx, ly, z));
          }
        }
      }
    }
    comm_.send(rank, rank_id(tx + route.ox, ty + route.oy),
               Message{route.tag, std::move(data)});
  }

  // One unpack per message, into the real edge. A slot is kept only when
  // its source, dst - c, lies on the sender's side of the tile (a
  // diagonal edge slot whose source sits in a corner-adjacent rank
  // arrives with that corner's message instead) and is not a wall
  // (wall-sourced slots were bounce-filled locally).
  for (const HaloRoute& route : kHaloRoutes) {
    const Message message =
        comm_.recv(rank, rank_id(tx - route.ox, ty - route.oy), route.tag);
    const Span xs = edge_span(route.ox, lnx);
    const Span ys = edge_span(route.oy, lny);
    const Span from_x = ghost_span(-route.ox, lnx);
    const Span from_y = ghost_span(-route.oy, lny);
    Size i = 0;
    for (int d = 0; d < route.ndirs; ++d) {
      const int dir = route.dirs[d];
      const Index cxd = cx[static_cast<Size>(dir)];
      const Index cyd = cy[static_cast<Size>(dir)];
      const Index czd = cz[static_cast<Size>(dir)];
      for (Index lx = xs.lo; lx <= xs.hi; ++lx) {
        for (Index ly = ys.lo; ly <= ys.hi; ++ly) {
          for (Index z = 0; z < nz; ++z, ++i) {
            const Size dst = grid.index(lx, ly, z);
            if (grid.solid(dst)) continue;
            const Index sx = lx - cxd;
            const Index sy = ly - cyd;
            if (!from_x.contains(sx) || !from_y.contains(sy)) continue;
            if (grid.solid(grid.index(sx, sy, FluidGrid::wrap(z - czd, nz)))) {
              continue;
            }
            grid.df_new(dir, dst) = message.data[i];
          }
        }
      }
    }
  }
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
                                     Index steps_before,
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
    // Kernels 1-4 on the replica, spread into own tile only.
    {
      KernelScope scope(prof, Phase::kBending);
      for (FiberSheet& sheet : r.structure) {
        compute_bending_force(sheet, 0, sheet.num_fibers());
      }
    }
    {
      KernelScope scope(prof, Phase::kStretching);
      for (FiberSheet& sheet : r.structure) {
        compute_stretching_force(sheet, 0, sheet.num_fibers());
      }
    }
    {
      KernelScope scope(prof, Phase::kElastic);
      for (FiberSheet& sheet : r.structure) {
        compute_elastic_force(sheet, 0, sheet.num_fibers());
      }
    }
    {
      KernelScope scope(prof, Phase::kSpread);
      spread_force_owned(r.structure, grid, r.tile, params_.body_force);
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
    if (observer && (steps_before + step + 1) % observer_interval == 0) {
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
  const Index steps_before = steps_completed_;
  ThreadTeam team(params_.num_threads);
  team.run([&](int rank) {
    rank_entry(rank, num_steps, steps_before, observer, observer_interval);
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
          copy_node(fluid, fluid.index(gx, gy, z), grid, grid.index(lx, ly, z));
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
          copy_node(grid, grid.index(lx, ly, z), out, out.index(gx, gy, z));
        }
      }
    }
  }
}

}  // namespace lbmib
