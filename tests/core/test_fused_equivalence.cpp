// Fused-pipeline equivalence: for every solver implementation, the fused
// collide-stream + O(1) buffer-swap pipeline (params.fused_step = true,
// the default) must reproduce the paper's literal pipeline (collide in
// place, stream, full copy-back) exactly. Both paths run the same
// collision arithmetic per node (lbm/collision.hpp collide_node_array,
// lbm/mrt.hpp MrtOperator::collide_node), so BGK *and* MRT are required
// to be bit-identical — any drift means the fused kernels stream to the
// wrong slot or mishandle a boundary, not rounding.
//
// Also covers the swap-specific hazards: snapshot/checkpoint after an odd
// number of steps (swap parity flipped), restore into a fused solver, and
// conservation under the fused path.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/solver.hpp"
#include "core/verification.hpp"
#include "io/checkpoint.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {
namespace {

// The forced-scalar fused pipeline is required to be bit-identical to the
// reference pipeline — same per-node arithmetic, so any drift is a
// streaming/boundary bug. The vectorized pipeline performs the same
// operation sequence per lane, but the lane kernels live in their own
// translation unit and the compiler's fp-contraction may fuse different
// multiply-adds there; on some flow states (observed: inlet-outlet) that
// is worth a few ULPs (~1e-17 on O(1e-2) values). Vectorized legs
// therefore get this pure-rounding allowance, still ~1e12x tighter than
// any physical tolerance.
constexpr Real kContractionTol = 1e-14;

constexpr SolverKind kAllKinds[] = {
    SolverKind::kSequential,  SolverKind::kOpenMP,
    SolverKind::kCube,        SolverKind::kDataflow,
    SolverKind::kDistributed, SolverKind::kDistributed2D,
};

SimulationParams base_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  p.boundary = BoundaryType::kPeriodic;
  // One worker here; every kind spreads owner-computes in one fixed sum
  // order at any thread count, so the four-worker test below is bit-exact
  // as well, and test_randomized_equivalence.cpp covers more thread
  // counts.
  p.num_threads = 1;
  return p;
}

/// Run `kind` with both pipeline settings from identical params (except
/// fused_step) and return the state difference after `steps` steps.
StateDiff fused_vs_reference(SolverKind kind, SimulationParams p,
                             Index steps) {
  p.fused_step = false;
  auto reference = make_solver(kind, p);
  reference->run(steps);
  p.fused_step = true;
  auto fused = make_solver(kind, p);
  fused->run(steps);
  return compare_solvers(*reference, *fused);
}

class FusedEquivalence : public ::testing::TestWithParam<SolverKind> {};

TEST_P(FusedEquivalence, BitIdenticalAcrossBoundaryTypes) {
  for (BoundaryType boundary :
       {BoundaryType::kPeriodic, BoundaryType::kChannel,
        BoundaryType::kInletOutlet, BoundaryType::kCavity}) {
    SimulationParams p = base_params();
    p.boundary = boundary;
    switch (boundary) {
      case BoundaryType::kInletOutlet:
        p.body_force = {};
        p.inlet_velocity = {0.02, 0.0, 0.0};
        break;
      case BoundaryType::kCavity:
        p.body_force = {};
        p.lid_velocity = {0.03, 0.01, 0.0};
        break;
      default:
        break;
    }
    SCOPED_TRACE(p.summary());
    // 7 steps: odd, so the fused solvers end with flipped swap parity and
    // the snapshot path must still hand back the canonical buffer. The
    // scalar fused sweep is the structural contract: exactly zero, on
    // every boundary type.
    p.simd_step = false;
    EXPECT_EQ(fused_vs_reference(GetParam(), p, 7).max_any(), 0.0);
    // The vectorized sweep may differ by fp-contraction rounding only.
    p.simd_step = true;
    EXPECT_LE(fused_vs_reference(GetParam(), p, 7).max_any(),
              kContractionTol);
  }
}

TEST_P(FusedEquivalence, BitIdenticalWithMrtCollision) {
  SimulationParams p = base_params();
  p.collision = CollisionModel::kMRT;
  p.boundary = BoundaryType::kChannel;
  EXPECT_EQ(fused_vs_reference(GetParam(), p, 6).max_any(), 0.0);
}

TEST_P(FusedEquivalence, BitIdenticalWithObstacles) {
  // Interior solid nodes exercise the fused kernels' bounce-back-at-source
  // path and the requirement that solid df_new slots are zeroed, not
  // skipped.
  SimulationParams p = base_params();
  p.obstacles.push_back({{4.0, 8.0, 8.0}, 2.5});
  EXPECT_EQ(fused_vs_reference(GetParam(), p, 6).max_any(), 0.0);
}

TEST_P(FusedEquivalence, BitIdenticalWithoutFibers) {
  SimulationParams p = base_params();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  EXPECT_EQ(fused_vs_reference(GetParam(), p, 7).max_any(), 0.0);
}

TEST_P(FusedEquivalence, BitIdenticalWithFourWorkers) {
  // Any cross-worker race on df_new or the force field, or a mistimed
  // swap, shows up as a state difference. Four workers put the
  // distributed tile solver on a 2x2 mesh, so every tile row sweeps next
  // to walls, the lid, the obstacle and the inlet/outlet planes, under
  // both collision operators. The sheet's leading edge is pinned, so it
  // stays in the box on every boundary while four owners spread into it.
  for (CollisionModel collision :
       {CollisionModel::kBGK, CollisionModel::kMRT}) {
    for (BoundaryType boundary :
         {BoundaryType::kPeriodic, BoundaryType::kChannel,
          BoundaryType::kCavity, BoundaryType::kInletOutlet}) {
      SimulationParams p = base_params();
      p.pin_mode = PinMode::kLeadingEdge;
      p.num_threads = 4;
      p.collision = collision;
      p.boundary = boundary;
      switch (boundary) {
        case BoundaryType::kChannel:
          p.obstacles.push_back({{4.0, 8.0, 8.0}, 2.5});
          break;
        case BoundaryType::kInletOutlet:
          p.body_force = {};
          p.inlet_velocity = {0.02, 0.0, 0.0};
          break;
        case BoundaryType::kCavity:
          p.body_force = {};
          p.lid_velocity = {0.03, 0.01, 0.0};
          break;
        default:
          break;
      }
      SCOPED_TRACE(::testing::Message()
                   << (collision == CollisionModel::kMRT ? "MRT" : "BGK")
                   << ", boundary " << static_cast<int>(boundary));
      p.simd_step = false;
      EXPECT_EQ(fused_vs_reference(GetParam(), p, 7).max_any(), 0.0);
      p.simd_step = true;
      EXPECT_LE(fused_vs_reference(GetParam(), p, 7).max_any(),
                kContractionTol);
    }
  }
}

/// Run `kind`'s fused pipeline twice — vectorized lane-block kernels vs
/// forced-scalar per-node path — and return the state difference.
StateDiff simd_vs_scalar(SolverKind kind, SimulationParams p,
                         Index steps) {
  p.fused_step = true;
  p.simd_step = false;
  auto scalar = make_solver(kind, p);
  scalar->run(steps);
  p.simd_step = true;
  auto simd = make_solver(kind, p);
  simd->run(steps);
  return compare_solvers(*scalar, *simd);
}

TEST_P(FusedEquivalence, VectorizedMatchesScalarBgk) {
  // The lane-block kernels perform exactly the scalar operation sequence
  // per lane with no cross-lane reductions; the only permitted deviation
  // is fp-contraction rounding (see kContractionTol) — never delete the
  // leg.
  for (BoundaryType boundary :
       {BoundaryType::kPeriodic, BoundaryType::kChannel,
        BoundaryType::kInletOutlet, BoundaryType::kCavity}) {
    SimulationParams p = base_params();
    p.boundary = boundary;
    if (boundary == BoundaryType::kInletOutlet) {
      p.body_force = {};
      p.inlet_velocity = {0.02, 0.0, 0.0};
    }
    if (boundary == BoundaryType::kCavity) {
      p.body_force = {};
      p.lid_velocity = {0.03, 0.01, 0.0};
    }
    SCOPED_TRACE(p.summary());
    EXPECT_LE(simd_vs_scalar(GetParam(), p, 7).max_any(),
              kContractionTol);
  }
}

TEST_P(FusedEquivalence, VectorizedMatchesScalarMrt) {
  SimulationParams p = base_params();
  p.collision = CollisionModel::kMRT;
  p.boundary = BoundaryType::kChannel;
  EXPECT_LE(simd_vs_scalar(GetParam(), p, 6).max_any(), kContractionTol);
}

TEST_P(FusedEquivalence, VectorizedMatchesScalarWithObstacles) {
  // Obstacles force row-by-row divergence between the clear-row vector
  // path and the scalar boundary path; the dispatch seam must not leak.
  SimulationParams p = base_params();
  p.obstacles.push_back({{4.0, 8.0, 8.0}, 2.5});
  EXPECT_LE(simd_vs_scalar(GetParam(), p, 6).max_any(), kContractionTol);
}

TEST_P(FusedEquivalence, TileSizeNeverChangesResults) {
  // Cache tiling only reorders the sweep; every df_new slot has exactly
  // one writer, so any tile extent must be bit-identical to tile_y = 1.
  SimulationParams base = base_params();
  base.num_fibers = 0;
  base.nodes_per_fiber = 0;
  SimulationParams p = base;
  p.tile_y = 1;
  auto reference = make_solver(GetParam(), p);
  reference->run(7);
  for (Index tile : {2, 3, 1024}) {
    p.tile_y = tile;
    auto tiled = make_solver(GetParam(), p);
    tiled->run(7);
    EXPECT_EQ(compare_solvers(*reference, *tiled).max_any(), 0.0)
        << "tile_y=" << tile;
  }
}

TEST_P(FusedEquivalence, FirstTouchNeverChangesResults) {
  // First-touch only changes which thread writes the initial pages, not
  // the values written; a multi-thread run must be bit-identical either
  // way.
  SimulationParams p = base_params();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.num_threads = 4;
  p.first_touch = true;
  auto touched = make_solver(GetParam(), p);
  touched->run(7);
  p.first_touch = false;
  auto serial_init = make_solver(GetParam(), p);
  serial_init->run(7);
  EXPECT_EQ(compare_solvers(*touched, *serial_init).max_any(), 0.0);
}

TEST_P(FusedEquivalence, MassAndMomentumConservedUnderFusedPath) {
  SimulationParams p = base_params();
  p.body_force = {};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  p.initial_velocity = {0.02, 0.01, 0.0};
  p.fused_step = true;
  auto solver = make_solver(GetParam(), p);
  FluidGrid before(p.nx, p.ny, p.nz);
  solver->snapshot_fluid(before);
  const Real mass0 = before.total_mass();
  const Vec3 mom0 = before.total_momentum();
  solver->run(9);
  FluidGrid after(p.nx, p.ny, p.nz);
  solver->snapshot_fluid(after);
  EXPECT_NEAR(after.total_mass(), mass0, mass0 * 1e-10);
  EXPECT_NEAR(after.total_momentum().x, mom0.x, 1e-10);
  EXPECT_NEAR(after.total_momentum().y, mom0.y, 1e-10);
  EXPECT_NEAR(after.total_momentum().z, mom0.z, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, FusedEquivalence,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) {
                           return std::string(
                               solver_kind_name(info.param));
                         });

// --- swap parity vs checkpoint/restore -----------------------------------

class FusedCheckpointTest : public ::testing::TestWithParam<SolverKind> {
 protected:
  // Per-param filename: the six solver instances are separate ctest
  // entries that may run concurrently under `ctest -j`, so a shared
  // checkpoint path races one instance's save against another's
  // TearDown unlink.
  void SetUp() override {
    path_ = ::testing::TempDir() + "lbmib_fused_parity_test_" +
            std::string(solver_kind_name(GetParam())) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_P(FusedCheckpointTest, OddStepCheckpointResumesIdentically) {
  // 7 + 6 split: the checkpoint is taken with the fused solver's swap
  // parity flipped. The snapshot must serialize the canonical (post-step)
  // distributions regardless of which physical buffer holds them, and a
  // fresh solver restored from it must continue bit-identically.
  SimulationParams p = base_params();
  p.fused_step = true;

  auto straight = make_solver(GetParam(), p);
  straight->run(13);

  auto first = make_solver(GetParam(), p);
  first->run(7);
  FluidGrid snapshot(p.nx, p.ny, p.nz);
  first->snapshot_fluid(snapshot);
  save_checkpoint(path_, snapshot, first->structure(),
                  first->steps_completed());

  auto second = make_solver(GetParam(), p);
  FluidGrid loaded(p.nx, p.ny, p.nz);
  Structure structure = second->structure();
  const Index step = load_checkpoint(path_, loaded, structure);
  ASSERT_EQ(step, 7);
  second->restore_state(loaded, structure, step);
  second->run(6);

  EXPECT_EQ(second->steps_completed(), 13);
  EXPECT_EQ(compare_solvers(*straight, *second).max_any(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, FusedCheckpointTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) {
                           return std::string(
                               solver_kind_name(info.param));
                         });

}  // namespace
}  // namespace lbmib
