// Simulation parameter bundle and the paper's standard input presets.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/vec3.hpp"

namespace lbmib {

/// Boundary condition applied to the fluid domain.
enum class BoundaryType {
  kPeriodic,     ///< fully periodic box
  kChannel,      ///< periodic in x; bounce-back walls at y/z extremes
  kInletOutlet,  ///< channel walls + velocity inlet at x=0 (equilibrium
                 ///< scheme) and zero-gradient outflow at x=nx-1
  kCavity,       ///< closed box: all six faces are walls; the z = nz-1
                 ///< "lid" moves with lid_velocity (momentum-corrected
                 ///< bounce-back) — the classic lid-driven cavity
};

/// How fiber-sheet nodes are constrained.
enum class PinMode {
  kNone,         ///< fully free sheet
  kLeadingEdge,  ///< first column of every fiber held fixed (flag in wind)
  kCenter,       ///< central patch held fixed (paper's Fig. 1 plate)
};

/// Collision operator for the fluid (kernel 5).
enum class CollisionModel {
  kBGK,  ///< single relaxation time (the paper's operator)
  kMRT,  ///< multiple relaxation times (d'Humieres et al. 2002 extension)
};

/// A rigid spherical obstacle carved out of the fluid grid (marked solid;
/// the flow sees it through bounce-back). Lattice-unit coordinates.
struct SphereObstacle {
  Vec3 center{};
  Real radius = 0.0;
};

/// Description of one fiber sheet. A 3-D immersed structure is "comprised
/// of a number of 2-D sheets" (paper Section III-A); SimulationParams
/// describes the primary sheet inline and may add more via extra_sheets.
struct SheetSpec {
  Index num_fibers = 0;
  Index nodes_per_fiber = 0;
  Real width = 0.0;
  Real height = 0.0;
  Vec3 origin{};
  Real stretching_coeff = 0.0;
  Real bending_coeff = 0.0;
  Real tether_coeff = 0.0;  ///< 0 = hard pins; > 0 = soft target points
  PinMode pin_mode = PinMode::kNone;
};

/// All knobs of an LBM-IB simulation, in lattice units (dx = dt = 1).
struct SimulationParams {
  // --- fluid grid ---
  Index nx = 64;  ///< fluid nodes along x
  Index ny = 32;  ///< fluid nodes along y
  Index nz = 32;  ///< fluid nodes along z

  Real tau = 0.8;           ///< BGK relaxation time (> 0.5)
  CollisionModel collision = CollisionModel::kBGK;
  Real rho0 = 1.0;          ///< initial/reference density
  Vec3 body_force{};        ///< constant driving force per node (e.g. channel)
  Vec3 initial_velocity{};  ///< uniform initial fluid velocity
  Vec3 inlet_velocity{};    ///< imposed velocity at x=0 (kInletOutlet only)
  Vec3 lid_velocity{};      ///< tangential lid velocity (kCavity only)
  BoundaryType boundary = BoundaryType::kPeriodic;

  // --- immersed structure (one fiber sheet) ---
  Index num_fibers = 20;       ///< fibers in the sheet (rows)
  Index nodes_per_fiber = 20;  ///< Lagrangian nodes per fiber (columns)
  Real sheet_width = 10.0;     ///< physical extent across fibers
  Real sheet_height = 10.0;    ///< physical extent along each fiber
  Vec3 sheet_origin{20.0, 11.0, 11.0};  ///< lower corner of the sheet
  Real stretching_coeff = 0.02;  ///< k_s
  Real bending_coeff = 0.002;    ///< k_b
  Real tether_coeff = 0.0;       ///< k_t: 0 = hard pins, > 0 = soft anchors
  PinMode pin_mode = PinMode::kNone;

  /// Additional sheets beyond the primary one described by the fields
  /// above (empty for single-sheet problems).
  std::vector<SheetSpec> extra_sheets;

  /// Rigid spherical obstacles marked solid inside the domain.
  std::vector<SphereObstacle> obstacles;

  // --- parallel execution ---
  int num_threads = 1;   ///< worker threads for parallel solvers
  Index cube_size = 4;   ///< k: edge length of a cube (cube-based solver)

  /// Fused collide-stream with O(1) buffer swap (default). When true,
  /// kernels 5+6 run as one pass that collides each node's 19 populations
  /// in registers and pushes them straight into df_new, and kernel 9
  /// becomes a buffer swap instead of a 19-plane copy. When false, the
  /// solvers run the paper's literal pipeline (collide in place, stream,
  /// full copy-back) — kept selectable for A/B verification; the two
  /// paths are bit-identical for BGK.
  bool fused_step = true;

  /// Vectorized fused sweep (default). When true, the fused kernels hand
  /// contiguous solid-free z-runs (planar) or whole cubes to the SIMD
  /// lane-block collision kernels (simd_kernels.hpp); when false they
  /// collide node by node.
  /// Kept selectable for A/B verification and for the bit-exactness legs
  /// of the fused-equivalence suite.
  bool simd_step = true;

  /// y-tile extent of the planar fused sweep's cache blocking. 0 (default)
  /// picks the largest tile whose 3-row df working set fits the probed L2
  /// cache (fused_auto_tile_y); any positive value forces that extent.
  Index tile_y = 0;

  /// NUMA first-touch placement (default). When true and num_threads > 1,
  /// grid buffers are initialized by the worker team under the same
  /// partition the sweeps use, binding each worker's pages to its node.
  bool first_touch = true;

  /// Validate all invariants; throws lbmib::Error with a precise message.
  void validate() const;

  /// Kinematic viscosity implied by tau: nu = cs^2 (tau - 1/2).
  Real viscosity() const { return (tau - Real{0.5}) / Real{3}; }

  /// Total number of fluid nodes.
  Size fluid_nodes() const {
    return static_cast<Size>(nx) * static_cast<Size>(ny) *
           static_cast<Size>(nz);
  }

  /// Total number of fiber nodes over all sheets.
  Size fiber_nodes() const {
    Size n = static_cast<Size>(num_fibers) *
             static_cast<Size>(nodes_per_fiber);
    for (const SheetSpec& s : extra_sheets) {
      n += static_cast<Size>(s.num_fibers) *
           static_cast<Size>(s.nodes_per_fiber);
    }
    return n;
  }

  /// All sheet descriptions: the primary sheet (if non-empty) followed by
  /// extra_sheets.
  std::vector<SheetSpec> sheet_specs() const;

  /// One-line human-readable summary.
  std::string summary() const;
};

/// Presets reproducing the paper's experiment inputs (scaled versions are
/// produced by the bench harness).
namespace presets {

/// Sequential profiling input of Table I: 124x64x64 fluid grid, 20x20 sheet
/// discretised as 52x52 fiber nodes, 500 time steps (step count is chosen
/// by the caller).
SimulationParams table1_sequential();

/// Weak-scaling base input of Figure 8: 128^3 fluid nodes per core,
/// 104x104 fiber nodes.
SimulationParams fig8_weak_scaling_base();

/// Small smoke-test input used across unit tests and the quickstart.
SimulationParams tiny();

}  // namespace presets

}  // namespace lbmib
