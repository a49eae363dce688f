// Distributed-memory LBM-IB solver (the paper's first future-work item:
// "extend the cube-based implementation from shared memory manycore
// systems to extreme-scale distributed memory manycore systems").
//
// The domain splits over an Rx x Ry rank mesh; each rank owns an (x, y)
// tile of full-z columns in a private FluidGrid with one ghost layer on
// each of its four sides — NO fluid state is shared. The mesh is the
// solver's one structural choice, and each SolverKind picks one:
//   * Mesh::kTiles (kDistributed2D): the most balanced Rx >= Ry
//     factorization of the rank count — the surface-to-volume an
//     extreme-scale machine needs;
//   * Mesh::kSlabs (kDistributed): R x 1, 1-D slabs along x — the
//     degenerate one-row mesh. Both y neighbours of a slab are the rank
//     itself, so its y faces travel the rank's self channel.
//
// Per time step each rank:
//   1. computes fiber forces on its *replicated* structure (the
//      Lagrangian set is tiny compared to the fluid, the standard choice
//      in distributed IB codes), resets its own tile's force field to the
//      body force and spreads them into the tile only — spreading needs
//      no communication at all;
//   2. collides and push-streams locally, spilling crossing populations
//      into the ghost layers;
//   3. exchanges halos, 8 messages (the full D3Q19 dependency set),
//      all derived from one table of travel offsets (ox, oy) and tags:
//      * 4 face messages: the 5 populations crossing each x/y face;
//      * 4 corner messages: the single population crossing each xy edge
//        (directions 7, 8, 9, 10), one z-column each.
//      A message carries the populations whose velocity has cx = ox
//      wherever ox != 0 and cy = oy wherever oy != 0, packed from the
//      ghost cells on the neighbour's side. The receiver keeps a slot
//      only when its source, dst - c, lies on the sender's side of the
//      tile (so a diagonal slot whose source sits in a corner-adjacent
//      rank comes from that corner's message) and is not a wall (those
//      were filled locally by bounce-back);
//   4. applies inlet/outlet conditions to the boundary columns its tile
//      owns (those of the first/last x-ranks);
//   5. updates macroscopic fields locally;
//   6. interpolates fiber velocities *partially* over its tile and
//      all-reduces the partial sums, after which every rank advances its
//      structure replica identically;
//   7. copies (or, fused, swaps) distribution buffers locally.
//
// Steps 1, 4 and 6 call the planar kernels every solver shares
// (spread_force_owned, apply_inlet_outlet, interpolate_velocity) with the
// rank's tile as their OwnedBox (lbm/owned_box.hpp).
//
// Ranks run as threads here; the communication pattern (8 halo messages
// + one all-reduce per step) is the distributed algorithm — porting to
// MPI replaces Communicator with MPI calls and nothing else.
#pragma once

#include <memory>
#include <vector>

#include "core/solver.hpp"
#include "lbm/owned_box.hpp"
#include "parallel/barrier.hpp"
#include "parallel/communicator.hpp"

namespace lbmib {

class Distributed2DSolver final : public Solver {
 public:
  /// Rank mesh shape: balanced Rx x Ry tiles, or R x 1 slabs along x.
  enum class Mesh { kTiles, kSlabs };

  explicit Distributed2DSolver(const SimulationParams& params,
                               Mesh mesh = Mesh::kTiles);

  void step() override;
  void run(Index num_steps, const StepObserver& observer = nullptr,
           Index observer_interval = 1) override;
  void snapshot_fluid(FluidGrid& out) const override;
  void restore_state(const FluidGrid& fluid, const Structure& structure,
                     Index step) override;
  /// The SolverKind name of the mesh: "distributed" for slabs.
  std::string name() const override {
    return mesh_ == Mesh::kSlabs ? "distributed" : "distributed2d";
  }

  int ranks_x() const { return rx_; }
  int ranks_y() const { return ry_; }

  /// Tile [x_lo, x_hi) x [y_lo, y_hi) owned by `rank`: the ghosted box
  /// its planar kernels (spread_force_owned, interpolate_velocity,
  /// apply_inlet_outlet) take.
  using Tile = OwnedBox;
  Tile tile_of(int rank) const;

 private:
  struct Rank {
    Tile tile;
    std::unique_ptr<FluidGrid> grid;  // (lnx+2) x (lny+2) x nz w/ ghosts
    Structure structure;              // replica
  };

  void restore_fluid(const FluidGrid& fluid) override;

  /// `steps_before` is steps_completed() when the run began (the
  /// observer's step base).
  void rank_entry(int rank, Index num_steps, Index steps_before,
                  const StepObserver& observer, Index observer_interval);
  void run_loop(Index num_steps, const StepObserver& observer,
                Index observer_interval);

  int rank_id(int tx, int ty) const {
    return ((tx + rx_) % rx_) * ry_ + ((ty + ry_) % ry_);
  }

  void exchange_halos(int rank);
  void move_fibers_allreduce(Rank& r, int rank);

  Mesh mesh_;
  int rx_ = 1, ry_ = 1;
  std::vector<Rank> ranks_;
  Communicator comm_;
  BlockingBarrier barrier_;
};

}  // namespace lbmib
