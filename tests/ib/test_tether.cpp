// Tether (target-point) forces: soft anchoring of pinned nodes.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/fiber_sheet.hpp"

namespace lbmib {
namespace {

TEST(Tether, DefaultIsHardPin) {
  FiberSheet sheet(3, 3, 2.0, 2.0, {5.0, 5.0, 5.0}, 0.0, 0.0);
  sheet.apply_pin_mode(PinMode::kLeadingEdge);
  EXPECT_EQ(sheet.tether_coeff(), 0.0);
  EXPECT_TRUE(sheet.immobile(sheet.id(0, 0)));
  EXPECT_FALSE(sheet.immobile(sheet.id(0, 1)));
}

TEST(Tether, PositiveCoeffMakesPinnedNodesMobile) {
  FiberSheet sheet(3, 3, 2.0, 2.0, {5.0, 5.0, 5.0}, 0.0, 0.0);
  sheet.apply_pin_mode(PinMode::kLeadingEdge);
  sheet.set_tether_coeff(0.5);
  EXPECT_FALSE(sheet.immobile(sheet.id(0, 0)));
  EXPECT_TRUE(sheet.pinned(sheet.id(0, 0)));
}

TEST(Tether, AnchorsAreConstructionPositions) {
  FiberSheet sheet(2, 2, 1.0, 1.0, {3.0, 4.0, 5.0}, 0.0, 0.0);
  EXPECT_EQ(sheet.anchor(0), (Vec3{3.0, 4.0, 5.0}));
  sheet.position(0) += Vec3{1.0, 0.0, 0.0};
  EXPECT_EQ(sheet.anchor(0), (Vec3{3.0, 4.0, 5.0}));  // unchanged
}

TEST(Tether, RestoringForceIsProportionalToDisplacement) {
  FiberSheet sheet(2, 2, 1.0, 1.0, {}, 0.0, 0.0);
  sheet.set_pinned(0, true);
  sheet.set_tether_coeff(0.25);
  sheet.position(0) += Vec3{0.4, -0.2, 0.0};
  compute_all_fiber_forces(sheet);
  // Only the tether contributes here (no stretch: other nodes moved? they
  // didn't — stretch from displaced spacing exists; isolate by comparing
  // against a no-tether copy).
  FiberSheet ref(2, 2, 1.0, 1.0, {}, 0.0, 0.0);
  ref.set_pinned(0, true);
  ref.position(0) += Vec3{0.4, -0.2, 0.0};
  compute_all_fiber_forces(ref);
  const Vec3 tether = sheet.elastic_force(0) - ref.elastic_force(0);
  EXPECT_NEAR(tether.x, -0.25 * 0.4, 1e-14);
  EXPECT_NEAR(tether.y, 0.25 * 0.2, 1e-14);
  EXPECT_NEAR(tether.z, 0.0, 1e-14);
}

TEST(Tether, UnpinnedNodesFeelNoTether) {
  FiberSheet sheet(2, 2, 1.0, 1.0, {}, 0.0, 0.0);
  sheet.set_tether_coeff(1.0);
  sheet.position(3) += Vec3{0.5, 0.0, 0.0};
  FiberSheet ref(2, 2, 1.0, 1.0, {}, 0.0, 0.0);
  ref.position(3) += Vec3{0.5, 0.0, 0.0};
  compute_all_fiber_forces(sheet);
  compute_all_fiber_forces(ref);
  EXPECT_EQ(sheet.elastic_force(3), ref.elastic_force(3));
}

TEST(Tether, TetheredPlateStaysNearAnchorInFlow) {
  // A softly anchored plate drifts downstream but the tether holds it
  // near its anchor, unlike a free sheet which advects away.
  SimulationParams p = presets::tiny();
  p.initial_velocity = {0.03, 0.0, 0.0};
  p.pin_mode = PinMode::kCenter;
  p.num_fibers = 10;
  p.nodes_per_fiber = 10;
  p.tether_coeff = 0.5;
  SequentialSolver tethered(p);

  SimulationParams free_p = p;
  free_p.pin_mode = PinMode::kNone;
  SequentialSolver free_sheet(free_p);

  tethered.run(60);
  free_sheet.run(60);
  // Compare the drift of the anchored patch itself: the free sheet's
  // centre advects with the flow while the tether holds the anchored
  // nodes near their rest position.
  auto center_drift = [&](const FiberSheet& sheet) {
    Real drift = 0.0;
    Size count = 0;
    const FiberSheet& t = tethered.sheet();
    for (Size i = 0; i < sheet.num_nodes(); ++i) {
      if (!t.pinned(i)) continue;  // the same central patch in both runs
      drift += sheet.position(i).x - sheet.anchor(i).x;
      ++count;
    }
    return drift / static_cast<Real>(count);
  };
  const Real drift_tethered = center_drift(tethered.sheet());
  const Real drift_free = center_drift(free_sheet.sheet());
  EXPECT_LT(drift_tethered, 0.3 * drift_free);
  EXPECT_GT(drift_tethered, 0.0);  // soft, not rigid: it does move
}

TEST(Tether, TetheredNodesActuallyMove) {
  SimulationParams p = presets::tiny();
  p.initial_velocity = {0.03, 0.0, 0.0};
  p.pin_mode = PinMode::kLeadingEdge;
  p.tether_coeff = 0.1;
  SequentialSolver solver(p);
  solver.run(5);
  const Size pinned_node = solver.sheet().id(0, 0);
  EXPECT_GT(solver.sheet().position(pinned_node).x, p.sheet_origin.x);
}

TEST(Tether, SolversAgreeWithTether) {
  SimulationParams p = presets::tiny();
  p.initial_velocity = {0.02, 0.0, 0.0};
  p.pin_mode = PinMode::kCenter;
  p.tether_coeff = 0.3;
  SequentialSolver seq(p);
  seq.run(8);
  p.num_threads = 4;
  CubeSolver cube(p);
  cube.run(8);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
  Distributed2DSolver dist(p, Distributed2DSolver::Mesh::kSlabs);
  dist.run(8);
  EXPECT_LT(compare_solvers(seq, dist).max_any(), 1e-11);
}

TEST(Tether, AnchorLoadZeroAtRest) {
  FiberSheet sheet(4, 4, 3.0, 3.0, {5.0, 5.0, 5.0}, 0.05, 0.005);
  sheet.apply_pin_mode(PinMode::kLeadingEdge);
  sheet.set_tether_coeff(0.3);
  compute_all_fiber_forces(sheet);
  EXPECT_NEAR(norm(sheet.anchor_load()), 0.0, 1e-14);
}

TEST(Tether, AnchorLoadResistsTheFlow) {
  // A leading-edge-pinned sheet dragged downstream: the anchors carry a
  // load pointing downstream (+x) — the springs pull the anchors forward
  // while the anchors hold the sheet back.
  SimulationParams p = presets::tiny();
  p.initial_velocity = {0.03, 0.0, 0.0};
  p.pin_mode = PinMode::kLeadingEdge;
  p.stretching_coeff = 0.1;
  SequentialSolver solver(p);
  solver.run(30);
  compute_all_fiber_forces(solver.sheet());
  EXPECT_GT(solver.sheet().anchor_load().x, 1e-6);
}

TEST(Tether, TetheredAnchorLoadIsTetherTension) {
  // For a tethered sheet the mount load is the tether tension — which by
  // the global cancellation of internal spring forces also equals minus
  // the sheet's total elastic force.
  SimulationParams p = presets::tiny();
  p.initial_velocity = {0.02, 0.0, 0.0};
  p.pin_mode = PinMode::kCenter;
  p.tether_coeff = 0.2;
  SequentialSolver solver(p);
  solver.run(20);
  FiberSheet& sheet = solver.sheet();
  compute_all_fiber_forces(sheet);
  const Vec3 anchored = sheet.anchor_load();
  Vec3 tension{};
  for (Size i = 0; i < sheet.num_nodes(); ++i) {
    if (sheet.pinned(i)) {
      tension += 0.2 * (sheet.position(i) - sheet.anchor(i));
    }
  }
  EXPECT_NEAR(anchored.x, tension.x, 1e-14);
  const Vec3 total = sheet.total_elastic_force();
  EXPECT_NEAR(anchored.x, -total.x, 1e-12);
  EXPECT_NEAR(anchored.y, -total.y, 1e-12);
  EXPECT_NEAR(anchored.z, -total.z, 1e-12);
  // The mount is being dragged downstream.
  EXPECT_GT(anchored.x, 0.0);
}

TEST(Tether, NegativeCoeffRejected) {
  SimulationParams p = presets::tiny();
  p.tether_coeff = -0.1;
  EXPECT_THROW(p.validate(), Error);
}

}  // namespace
}  // namespace lbmib
