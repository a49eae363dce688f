// Cube-blocked Eulerian fluid grid — the data structure of the paper's
// cube-centric algorithm (Section V).
//
// The nx x ny x nz grid is divided into (nx/k) x (ny/k) x (nz/k) cubes of
// k^3 nodes. ALL per-node fields of one cube (both distribution buffers,
// density, velocity, force) live in one contiguous block of memory, so a
// thread sweeping its own cubes has a working set of one block instead of
// 45 grid-sized planes — the locality the paper's Table II measurements
// motivate.
//
// Block layout (m = k^3 nodes, all Real):
//   [ df[0..18][m] | df_new[0..18][m] | rho[m] | ux,uy,uz[m] | fx,fy,fz[m] ]
// Local node order inside a cube is x-major: (lx*k + ly)*k + lz.
#pragma once

#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/params.hpp"
#include "common/types.hpp"
#include "common/vec3.hpp"
#include "parallel/access_checker.hpp"
#include "parallel/modelcheck.hpp"
#include "parallel/race_detector.hpp"
#include "parallel/spinlock.hpp"
#include "parallel/thread_safety.hpp"

namespace lbmib {

class FluidGrid;

class CubeGrid {
 public:
  /// Field offsets (in units of m = nodes-per-cube) inside a cube block.
  static constexpr Size kDfSlot = 0;       // 19 slots
  static constexpr Size kDfNewSlot = 19;   // 19 slots
  static constexpr Size kRhoSlot = 38;
  static constexpr Size kUxSlot = 39;
  static constexpr Size kUySlot = 40;
  static constexpr Size kUzSlot = 41;
  static constexpr Size kFxSlot = 42;
  static constexpr Size kFySlot = 43;
  static constexpr Size kFzSlot = 44;
  static constexpr Size kSlotsPerCube = 45;

  CubeGrid(Index nx, Index ny, Index nz, Index cube_size, Real rho0 = 1.0,
           const Vec3& u0 = {});

  /// Build from the parameter bundle (grid dims, cube size, boundary mask,
  /// initial state). When params.first_touch is set and num_threads > 1,
  /// the cube blocks are initialized by an OpenMP team under a contiguous
  /// block partition of linear cube ids — the same order the cube solvers
  /// distribute cubes — so each worker's blocks bind to its own NUMA node
  /// (first-touch placement).
  explicit CubeGrid(const SimulationParams& params);

  ~CubeGrid() {
    // Shadow state is keyed by the grid's address; drop it so a future
    // grid re-using this address starts clean.
    LBMIB_RACE_CHECK(if (RaceDetector* rd = RaceDetector::active())
                         rd->forget_space(this);)
  }

  CubeGrid(CubeGrid&&) = default;
  CubeGrid& operator=(CubeGrid&&) = default;

  Index nx() const { return nx_; }
  Index ny() const { return ny_; }
  Index nz() const { return nz_; }
  Index cube_size() const { return k_; }
  Index cubes_x() const { return ncx_; }
  Index cubes_y() const { return ncy_; }
  Index cubes_z() const { return ncz_; }
  Size num_cubes() const {
    return static_cast<Size>(ncx_) * static_cast<Size>(ncy_) *
           static_cast<Size>(ncz_);
  }
  Size nodes_per_cube() const { return m_; }
  Size num_nodes() const { return num_cubes() * m_; }

  /// Linear cube id of cube coordinate (cx, cy, cz).
  Size cube_id(Index cx, Index cy, Index cz) const {
    return (static_cast<Size>(cx) * static_cast<Size>(ncy_) +
            static_cast<Size>(cy)) *
               static_cast<Size>(ncz_) +
           static_cast<Size>(cz);
  }

  /// Local node index inside a cube.
  Size local_id(Index lx, Index ly, Index lz) const {
    return (static_cast<Size>(lx) * static_cast<Size>(k_) +
            static_cast<Size>(ly)) *
               static_cast<Size>(k_) +
           static_cast<Size>(lz);
  }

  /// Split a global coordinate into (cube id, local id).
  struct NodeRef {
    Size cube;
    Size local;
  };
  NodeRef locate(Index x, Index y, Index z) const {
    return {cube_id(x / k_, y / k_, z / k_),
            local_id(x % k_, y % k_, z % k_)};
  }

  /// Locate with periodic wrapping of the global coordinate.
  NodeRef locate_periodic(Index x, Index y, Index z) const;

  /// One axis of locate: a global coordinate's cube coordinate (g / k)
  /// and its coordinate inside that cube (g % k).
  struct AxisCoord {
    Index cube;
    Index local;
  };

  /// Split global coordinate g, in [0, extent) along `axis` (0 = x,
  /// 1 = y, 2 = z), without dividing: the support walks of kernels 4 and
  /// 8 and the spread binning read it from a per-axis table built at
  /// construction.
  AxisCoord split(int axis, Index g) const {
    return axis_coords_[static_cast<Size>(axis)][static_cast<Size>(g)];
  }

  /// Id of the cube neighbouring `cube` by (dx, dy, dz) in {-1, 0, 1}^3,
  /// with periodic wrap at the grid boundary. Precomputed at construction
  /// so streaming's cross-cube pushes never divide.
  Size neighbor_cube(Size cube, int dx, int dy, int dz) const {
    return neighbors_[cube * 27 +
                      static_cast<Size>((dx + 1) * 9 + (dy + 1) * 3 +
                                        (dz + 1))];
  }

  // --- raw block access ----------------------------------------------------

  /// Pointer to the start of a cube's block.
  Real* block(Size cube) { return data_.data() + cube * block_stride_; }
  const Real* block(Size cube) const {
    return data_.data() + cube * block_stride_;
  }

  /// Pointer to one field slot of a cube (slot in units of m).
  Real* slot(Size cube, Size slot_index) {
    return block(cube) + slot_index * m_;
  }
  const Real* slot(Size cube, Size slot_index) const {
    return block(cube) + slot_index * m_;
  }

  // --- per-node field access ------------------------------------------------

  Real& df(Size cube, int dir, Size local) {
    return slot(cube, df_base_ + static_cast<Size>(dir))[local];
  }
  Real df(Size cube, int dir, Size local) const {
    return slot(cube, df_base_ + static_cast<Size>(dir))[local];
  }
  Real& df_new(Size cube, int dir, Size local) {
    return slot(cube, df_new_base_ + static_cast<Size>(dir))[local];
  }
  Real df_new(Size cube, int dir, Size local) const {
    return slot(cube, df_new_base_ + static_cast<Size>(dir))[local];
  }

  // --- swap parity (fused pipeline's O(1) "kernel 9") ----------------------

  /// Slot base of the present / new distribution field. A cube's block
  /// cannot pointer-swap the way FluidGrid's planes can (df and df_new are
  /// interior ranges of one allocation), so the swap flips which 19-slot
  /// range each accessor targets instead. Both ranges are contiguous, so
  /// kernels that memcpy 19 slots at once stay valid under either parity.
  Size df_slot_base() const { return df_base_; }
  Size df_new_slot_base() const { return df_new_base_; }

  /// Kernel 9 of the fused pipeline: retarget df/df_new in O(1) instead of
  /// memcpying 19 slots per cube. Accessors (and therefore from_planar /
  /// to_planar / checkpoints) always follow the current bases, so
  /// serialized state is parity-safe by construction. See DESIGN.md §11.
  void swap_df_buffers() {
    // Schedule point so the model checker can order the swap against
    // in-flight kernel accesses: under exploration a premature swap
    // manifests as a race on the df fields below in some schedule.
    LBMIB_MC_CHECK(mc::sched_point(mc::Op::kAccess, this);)
    LBMIB_ACCESS_CHECK(if (checker_ != nullptr) checker_->check_swap();)
    // The swap retargets both logical distribution fields of every cube
    // at once, so model it as an exclusive write to all of them: any
    // kernel access not ordered against the swap (premature swap,
    // skipped end-of-step barrier) becomes a reported race.
    LBMIB_RACE_CHECK(
        race::access_range(this, 0, num_cubes(), RaceField::kDf,
                           RaceAccess::kWrite, "swap_df_buffers");
        race::access_range(this, 0, num_cubes(), RaceField::kDfNew,
                           RaceAccess::kWrite, "swap_df_buffers");)
    std::swap(df_base_, df_new_base_);
  }

  /// Current parity: false when df sits at its construction-time base
  /// (kDfSlot), true after an odd number of swaps.
  bool swap_parity() const { return df_base_ != kDfSlot; }

  /// Slot base of df for a captured parity (df_new sits at the other
  /// one). The dataflow task graph runs several steps against one grid
  /// and tracks parity per step, so it cannot read df_slot_base() between
  /// swaps; it reconciles the grid once after the graph, with one
  /// swap_df_buffers() when the graph spanned an odd number of steps.
  /// This is the only sanctioned way to name a base outside the grid
  /// itself — the raw kDfSlot/kDfNewSlot constants describe the
  /// construction-time layout and are wrong after an odd number of swaps
  /// (enforced by the lbmib-df-parity check).
  static constexpr Size df_base_for(bool parity) {
    return parity ? kDfNewSlot : kDfSlot;
  }

  Real& rho(Size cube, Size local) { return slot(cube, kRhoSlot)[local]; }
  Real rho(Size cube, Size local) const {
    return slot(cube, kRhoSlot)[local];
  }

  Vec3 velocity(Size cube, Size local) const {
    return {slot(cube, kUxSlot)[local], slot(cube, kUySlot)[local],
            slot(cube, kUzSlot)[local]};
  }
  void set_velocity(Size cube, Size local, const Vec3& u) {
    slot(cube, kUxSlot)[local] = u.x;
    slot(cube, kUySlot)[local] = u.y;
    slot(cube, kUzSlot)[local] = u.z;
  }

  Vec3 force(Size cube, Size local) const {
    return {slot(cube, kFxSlot)[local], slot(cube, kFySlot)[local],
            slot(cube, kFzSlot)[local]};
  }
  /// Kernel 4's add: force[cube][local + i] += w[i] * f for each i < n
  /// whose weight is non-zero, in i order. A spread hands it one support
  /// column's z-targets that fall in one cube, which are consecutive
  /// local nodes.
  void add_force_run(Size cube, Size local, const Real* w, int n,
                     const Vec3& f) {
    accumulate_force_run(cube, local, w, n, f);
    // Hooks after the adds, so no hook call can come between a product
    // and its add: that would stop GCC contracting the pair into an FMA,
    // and a checked build would stop matching the sequential solver.
    LBMIB_ACCESS_CHECK(
        if (checker_ != nullptr) checker_->check_unlocked_write(cube);)
    LBMIB_RACE_CHECK(race::access(this, cube, RaceField::kForce,
                                  RaceAccess::kWrite,
                                  "add_force_run (unlocked)");)
  }

  /// add_force_run for a cross-thread write under the owning thread's
  /// lock (Algorithm 4's locked spread, which takes the lock once per
  /// run). `owner_lock` exists so clang's thread-safety analysis can
  /// prove the caller holds the lock it names; `owner` lets the debug
  /// AccessChecker verify that the lock held is the one cube2thread
  /// assigns to `cube`.
  void add_force_run_locked([[maybe_unused]] SpinLock& owner_lock,
                            [[maybe_unused]] int owner, Size cube,
                            Size local, const Real* w, int n, const Vec3& f)
      LBMIB_REQUIRES(owner_lock) {
    LBMIB_ACCESS_CHECK(
        if (checker_ != nullptr) checker_->check_locked_write(cube, owner);)
    // An exclusive write, not a scatter: the owner's lock totally
    // orders all spread-phase writers of this cube, so an unlocked
    // foreign write shows up as a missing happens-before edge.
    LBMIB_RACE_CHECK(race::access(this, cube, RaceField::kForce,
                                  RaceAccess::kWrite,
                                  "add_force_run (owner-locked)");)
    accumulate_force_run(cube, local, w, n, f);
  }

  /// One node's add, a run of one at weight 1 (exact: 1 * f + acc rounds
  /// as f + acc does).
  void add_force(Size cube, Size local, const Vec3& f) {
    constexpr Real kOne = 1;
    add_force_run(cube, local, &kOne, 1, f);
  }
  void add_force_locked(SpinLock& owner_lock, int owner, Size cube,
                        Size local, const Vec3& f) LBMIB_REQUIRES(owner_lock) {
    constexpr Real kOne = 1;
    add_force_run_locked(owner_lock, owner, cube, local, &kOne, 1, f);
  }

  /// Attach (or detach with nullptr) the debug ownership checker consulted
  /// by the LBMIB_CHECK_ACCESS write hooks. The grid does not own it.
  void attach_access_checker(AccessChecker* checker) { checker_ = checker; }
  AccessChecker* access_checker() const { return checker_; }

  bool solid(Size cube, Size local) const {
    return solid_[cube * m_ + local] != 0;
  }

  /// The cube's m solid bytes in local node order (nonzero = solid): the
  /// mask the cube push cuts rows by and kernel 7 reads per lane.
  const std::uint8_t* solid_mask(Size cube) const {
    return solid_.data() + cube * m_;
  }

  /// Moving lid at the z = nz-1 plane (see FluidGrid::set_lid_velocity).
  void set_lid_velocity(const Vec3& u) {
    lid_velocity_ = u;
    has_lid_ = (u.x != 0.0 || u.y != 0.0 || u.z != 0.0);
  }
  bool has_lid() const { return has_lid_; }
  const Vec3& lid_velocity() const { return lid_velocity_; }
  void set_solid(Size cube, Size local, bool s);

  /// True if any node of `cube` is solid (cached; O(1)).
  bool cube_has_solid(Size cube) const { return cube_has_solid_[cube] != 0; }

  /// True if neither `cube` nor any of its 26 neighbours contains a solid
  /// node. No kernel path depends on it any more (every cube collides
  /// through the same lane block and push); it stays as a workload
  /// statistic: the benchmark reports it as cube.solid_free_cubes, and
  /// its self-test expects 256 of cube_channel's 1024 cubes.
  bool solid_free_region(Size cube) const;

  // --- whole-grid operations -------------------------------------------------

  /// Reset every node to equilibrium at (rho0, u0) and clear forces.
  void initialize(Real rho0, const Vec3& u0);

  /// Set the force field of every node to `constant_force`.
  void reset_forces(const Vec3& constant_force);

  /// Set the force field of one cube's nodes to `constant_force`: the
  /// next step's reset, run by the cube's owner (a raw write of the force
  /// slots, bypassing the hooked add_force accessors).
  void reset_forces(Size cube, const Vec3& constant_force);

  /// Copy all fields from a planar grid (layout conversion).
  void from_planar(const FluidGrid& grid);

  /// Write all fields into a planar grid of identical dimensions.
  void to_planar(FluidGrid& grid) const;

  /// Mark channel walls as solid (mirrors apply_boundary_mask).
  void apply_boundary(BoundaryType type);

 private:
  Index nx_, ny_, nz_, k_;
  Index ncx_, ncy_, ncz_;
  /// The neighbour table and the per-axis split tables.
  void build_lookup_tables();

  void accumulate_force_run(Size cube, Size local, const Real* w, int n,
                            const Vec3& f) {
    Real* fx = slot(cube, kFxSlot) + local;
    Real* fy = slot(cube, kFySlot) + local;
    Real* fz = slot(cube, kFzSlot) + local;
    for (int i = 0; i < n; ++i) {
      if (w[i] == Real{0}) continue;
      // The product before the loads of its targets, as in the planar
      // spread, so each pair contracts into an FMA (or not) alike in both
      // layouts: a sanitizer's check on a target load sits between them.
      const Vec3 wf = w[i] * f;
      fx[i] += wf.x;
      fy[i] += wf.y;
      fz[i] += wf.z;
    }
  }

  /// Construction-time initialization of cube blocks [cube_begin,
  /// cube_end): equilibrium df, zero df_new/forces, rest macroscopics,
  /// zero solid bytes and the cube_has_solid cache. Parity-aware but only
  /// ever called at base parity (from the constructors).
  void initialize_range(Size cube_begin, Size cube_end, Real rho0,
                        const Vec3& u0);

  Size m_;             // nodes per cube
  Size block_stride_;  // reals per cube block
  Size df_base_ = kDfSlot;        // slot base of df under current parity
  Size df_new_base_ = kDfNewSlot; // slot base of df_new
  AlignedBuffer<Real> data_;
  AlignedBuffer<std::uint8_t> solid_;  // cube-major, [num_cubes * m]
  AlignedBuffer<std::uint8_t> cube_has_solid_;  // [num_cubes]
  AlignedBuffer<Size> neighbors_;      // [num_cubes * 27]
  std::vector<AxisCoord> axis_coords_[3];  // split() per axis, [extent]
  Vec3 lid_velocity_{};
  bool has_lid_ = false;
  /// Debug ownership checker; consulted only when LBMIB_CHECK_ACCESS is
  /// compiled in (one never-taken branch otherwise costs nothing because
  /// the hook itself is compiled out).
  AccessChecker* checker_ = nullptr;
};

}  // namespace lbmib
