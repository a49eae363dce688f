// Planar (non-blocked) Eulerian fluid grid — the data structure of the
// sequential and OpenMP solvers (Figure 3 of the paper).
//
// Storage is structure-of-arrays: each field is one contiguous array over
// all nx*ny*nz nodes with x-major node index ((x*ny)+y)*nz + z, so OpenMP's
// static x-slab partitioning (Algorithm 2) touches contiguous memory.
// Distribution functions are direction-major (dir*n + node) and come in two
// buffers: `df` holds the present time step's distributions, `df_new`
// receives streamed values (kernels 6/9 of the paper).
#pragma once

#include "common/aligned_buffer.hpp"
#include "common/params.hpp"
#include "common/types.hpp"
#include "common/vec3.hpp"
#include "parallel/race_detector.hpp"

namespace lbmib {

class FluidGrid {
 public:
  /// Build a grid of nx x ny x nz nodes at rest density `rho0` and uniform
  /// velocity `u0`; distributions start at equilibrium.
  FluidGrid(Index nx, Index ny, Index nz, Real rho0 = 1.0,
            const Vec3& u0 = {});

  /// Convenience constructor from the parameter bundle (also applies the
  /// boundary mask for the configured BoundaryType). When
  /// params.first_touch is set and num_threads > 1, the field buffers are
  /// initialized by an OpenMP team using the same static x-slab partition
  /// as the OpenMP solver's sweeps, so each worker's df pages bind to its
  /// own NUMA node (first-touch placement).
  explicit FluidGrid(const SimulationParams& params);

  ~FluidGrid() {
    // Race-detector shadow state is keyed by the grid's address (one
    // location per x-plane); drop it so a future grid re-using this
    // address starts clean.
    LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                         rd->forget_space(this);)
  }

  FluidGrid(FluidGrid&&) = default;
  FluidGrid& operator=(FluidGrid&&) = default;

  Index nx() const { return nx_; }
  Index ny() const { return ny_; }
  Index nz() const { return nz_; }
  Size num_nodes() const { return n_; }

  /// Linear node index of coordinate (x, y, z).
  Size index(Index x, Index y, Index z) const {
    return (static_cast<Size>(x) * static_cast<Size>(ny_) +
            static_cast<Size>(y)) *
               static_cast<Size>(nz_) +
           static_cast<Size>(z);
  }

  /// Coordinate wrapped periodically into [0, n). A coordinate already in
  /// range (most of a support's indices) returns without dividing.
  static Index wrap(Index v, Index n) {
    if (v >= 0 && v < n) return v;
    v %= n;
    return v < 0 ? v + n : v;
  }

  /// Linear index of (x, y, z) with periodic wrapping in all directions.
  Size periodic_index(Index x, Index y, Index z) const {
    return index(wrap(x, nx_), wrap(y, ny_), wrap(z, nz_));
  }

  // --- field access -------------------------------------------------------

  /// Distance in Reals between consecutive direction planes of df/df_new.
  /// Padded up from num_nodes() to a multiple of 8 doubles so every plane
  /// base is 64-byte aligned (the AlignedBuffer contract holds per plane,
  /// not just for plane 0 — what lets kernels assume_aligned plane bases).
  /// The padding tail of each plane is zero and never read.
  Size plane_stride() const { return stride_; }

  /// Present distribution value for direction `dir` at node `node`.
  Real& df(int dir, Size node) {
    return df_[static_cast<Size>(dir) * stride_ + node];
  }
  Real df(int dir, Size node) const {
    return df_[static_cast<Size>(dir) * stride_ + node];
  }

  /// New (streamed) distribution buffer.
  Real& df_new(int dir, Size node) {
    return df_new_[static_cast<Size>(dir) * stride_ + node];
  }
  Real df_new(int dir, Size node) const {
    return df_new_[static_cast<Size>(dir) * stride_ + node];
  }

  /// Raw direction-plane pointers for vectorised kernels.
  Real* df_plane(int dir) {
    return df_.data() + static_cast<Size>(dir) * stride_;
  }
  const Real* df_plane(int dir) const {
    return df_.data() + static_cast<Size>(dir) * stride_;
  }
  Real* df_new_plane(int dir) {
    return df_new_.data() + static_cast<Size>(dir) * stride_;
  }
  const Real* df_new_plane(int dir) const {
    return df_new_.data() + static_cast<Size>(dir) * stride_;
  }

  Real& rho(Size node) { return rho_[node]; }
  Real rho(Size node) const { return rho_[node]; }

  Real& ux(Size node) { return ux_[node]; }
  Real ux(Size node) const { return ux_[node]; }
  Real& uy(Size node) { return uy_[node]; }
  Real uy(Size node) const { return uy_[node]; }
  Real& uz(Size node) { return uz_[node]; }
  Real uz(Size node) const { return uz_[node]; }

  Vec3 velocity(Size node) const {
    return {ux_[node], uy_[node], uz_[node]};
  }
  void set_velocity(Size node, const Vec3& u) {
    ux_[node] = u.x;
    uy_[node] = u.y;
    uz_[node] = u.z;
  }

  Real& fx(Size node) { return fx_[node]; }
  Real fx(Size node) const { return fx_[node]; }
  Real& fy(Size node) { return fy_[node]; }
  Real fy(Size node) const { return fy_[node]; }
  Real& fz(Size node) { return fz_[node]; }
  Real fz(Size node) const { return fz_[node]; }

  Vec3 force(Size node) const { return {fx_[node], fy_[node], fz_[node]}; }
  void add_force(Size node, const Vec3& f) {
    fx_[node] += f.x;
    fy_[node] += f.y;
    fz_[node] += f.z;
  }

  Real* fx_data() { return fx_.data(); }
  Real* fy_data() { return fy_.data(); }
  Real* fz_data() { return fz_.data(); }
  const Real* fx_data() const { return fx_.data(); }
  const Real* fy_data() const { return fy_.data(); }
  const Real* fz_data() const { return fz_.data(); }

  // Raw macroscopic-field pointers for the vectorized kernel-7 update
  // (lbm/macroscopic.cpp).
  Real* rho_data() { return rho_.data(); }
  Real* ux_data() { return ux_.data(); }
  Real* uy_data() { return uy_.data(); }
  Real* uz_data() { return uz_.data(); }

  bool solid(Size node) const { return solid_[node] != 0; }
  const std::uint8_t* solid_data() const { return solid_.data(); }

  /// Mark or clear a solid node, keeping the per-(x,y)-row solid caches
  /// consistent (O(nz) worst case when clearing; setup-path only).
  void set_solid(Size node, bool s);

  // --- vector fast-path row metadata --------------------------------------
  //
  // A z-row (fixed x, y) is "clear" when it is interior in x and y and no
  // row of its 3x3 (x +-1, y +-1) neighborhood contains a solid node. For
  // a clear row every stream destination of the interior z-run [1, nz-1)
  // is dst = src + offset with a non-solid target and no moving-lid plane
  // in reach (the lid correction only applies when the target is solid),
  // so the fused kernels may hand the whole run to the branch-free SIMD
  // block kernels. Maintained eagerly by set_solid so concurrent sweep
  // workers only ever read it.

  /// Clear-row flag for row (x, y); row index is x*ny + y.
  bool row_clear(Index x, Index y) const {
    return row_clear_[static_cast<Size>(x) * static_cast<Size>(ny_) +
                      static_cast<Size>(y)] != 0;
  }
  const std::uint8_t* row_clear_data() const { return row_clear_.data(); }

  /// Cap-clear flag for row (x, y): interior in x and y, and every row of
  /// the 3x3 neighborhood has solids only at the z caps (z == 0 or
  /// z == nz-1), if any. For such a row the interior z-run [2, nz-2)
  /// streams exclusively to non-solid targets with no wrap and no lid in
  /// reach, so the SIMD block kernels handle it; only the four cap nodes
  /// z in {0, 1, nz-2, nz-1} need the scalar boundary path. This is what
  /// keeps the vector path live for the walled boundaries (channel,
  /// cavity, inlet-outlet), whose z-wall planes make row_clear false for
  /// every row. row_clear implies row_cap_clear.
  bool row_cap_clear(Index x, Index y) const {
    return row_cap_clear_[static_cast<Size>(x) * static_cast<Size>(ny_) +
                          static_cast<Size>(y)] != 0;
  }

  /// Every node of row (x, y) is solid (a wall row): the sweep only has
  /// to zero its df_new slots, one contiguous memset per direction.
  bool row_solid(Index x, Index y) const {
    return row_solid_[static_cast<Size>(x) * static_cast<Size>(ny_) +
                      static_cast<Size>(y)] != 0;
  }

  /// Row (x, y) contains a solid node in the interior z band [1, nz-2).
  bool row_interior_solid(Index x, Index y) const {
    return row_interior_solid_[static_cast<Size>(x) *
                                   static_cast<Size>(ny_) +
                               static_cast<Size>(y)] != 0;
  }

  /// row_clear / row_cap_clear over the periodically *wrapped* 3x3
  /// neighborhood, defined for every row including the grid faces. An
  /// edge row that is wrap-clear still vectorizes — the caller just has
  /// to fold the x/y wrap into per-row stream offsets (the wrapped
  /// targets are interior-solid-free, so the runs stay branch-free).
  bool row_wrap_clear(Index x, Index y) const {
    return row_wrap_clear_[static_cast<Size>(x) * static_cast<Size>(ny_) +
                           static_cast<Size>(y)] != 0;
  }
  bool row_wrap_cap_clear(Index x, Index y) const {
    return row_wrap_cap_clear_[static_cast<Size>(x) *
                                   static_cast<Size>(ny_) +
                               static_cast<Size>(y)] != 0;
  }

  /// Give the z = nz-1 wall plane a tangential velocity (the lid of a
  /// lid-driven cavity). Streaming then applies the momentum-corrected
  /// bounce-back  g_opp(x) = g_dir(x) - 2 w_dir rho_w (c_dir . u_lid)/cs^2
  /// at that plane.
  void set_lid_velocity(const Vec3& u) {
    lid_velocity_ = u;
    has_lid_ = (u.x != 0.0 || u.y != 0.0 || u.z != 0.0);
  }
  bool has_lid() const { return has_lid_; }
  const Vec3& lid_velocity() const { return lid_velocity_; }

  // --- whole-grid operations ----------------------------------------------

  /// Reset every node to equilibrium at (rho0, u0) and clear forces.
  void initialize(Real rho0, const Vec3& u0);

  /// Set all three force components at every node to `constant_force`
  /// (the start-of-step reset before fiber forces are spread; the constant
  /// part is the body force driving channel flow).
  void reset_forces(const Vec3& constant_force);

  /// Swap the present and new distribution buffers — kernel 9 of the
  /// fused pipeline (params.fused_step). O(1) where the reference path
  /// memcpys 19 planes; accessors always read the canonical buffer, so
  /// checkpoints and snapshots are parity-safe by construction. See
  /// DESIGN.md §11 and bench/ablation_copy_vs_swap.cpp.
  void swap_buffers() {
    // Modeled as an exclusive write to both logical distribution fields
    // of every x-plane: the swap is the pivot every cross-step access
    // must be ordered against (see DESIGN.md §12).
    LBMIB_RACE_CHECK(
        race::access_range(this, 0, static_cast<Size>(nx_), RaceField::kDf,
                           RaceAccess::kWrite, "swap_buffers");
        race::access_range(this, 0, static_cast<Size>(nx_),
                           RaceField::kDfNew, RaceAccess::kWrite,
                           "swap_buffers");)
    std::swap(df_, df_new_);
  }

  /// Deep-copy every field from a grid of identical dimensions. (The grid
  /// is otherwise move-only; copying multi-GB state should be explicit.)
  void copy_from(const FluidGrid& other);

  /// Total fluid mass (sum of rho over non-solid nodes); conserved by
  /// collision + streaming under periodic boundaries.
  Real total_mass() const;

  /// Total fluid momentum computed from the present distributions.
  Vec3 total_momentum() const;

 private:
  /// Allocate every buffer and write the equilibrium initial state.
  /// threads > 1 runs the initialization under an OpenMP team partitioned
  /// in x-slabs (NUMA first-touch); threads <= 1 is the serial path.
  void allocate_and_init(Real rho0, const Vec3& u0, int threads);

  /// Recompute row_clear_ / row_cap_clear_ for row (x, y) from
  /// row_has_solid_ / row_interior_solid_.
  void recompute_row_clear(Index x, Index y);

  /// Same over the wrapped neighborhood (valid for every row).
  void recompute_row_wrap_clear(Index x, Index y);

  Index nx_, ny_, nz_;
  Size n_;
  Size stride_;  // padded plane stride (multiple of 8 Reals >= n_)
  AlignedBuffer<Real> df_;       // [kQ * stride], direction-major
  AlignedBuffer<Real> df_new_;   // [kQ * stride]
  AlignedBuffer<Real> rho_;      // [n]
  AlignedBuffer<Real> ux_, uy_, uz_;  // [n] each
  AlignedBuffer<Real> fx_, fy_, fz_;  // [n] each
  AlignedBuffer<std::uint8_t> solid_;  // [n]
  AlignedBuffer<std::uint8_t> row_has_solid_;  // [nx * ny]
  AlignedBuffer<std::uint8_t> row_interior_solid_;  // [nx*ny]: solid at z in [1, nz-2]
  AlignedBuffer<std::uint8_t> row_solid_;      // [nx * ny]: all nz solid
  AlignedBuffer<std::uint8_t> row_clear_;      // [nx * ny]
  AlignedBuffer<std::uint8_t> row_cap_clear_;  // [nx * ny]
  AlignedBuffer<std::uint8_t> row_wrap_clear_;      // [nx * ny]
  AlignedBuffer<std::uint8_t> row_wrap_cap_clear_;  // [nx * ny]
  Vec3 lid_velocity_{};
  bool has_lid_ = false;
};

}  // namespace lbmib
