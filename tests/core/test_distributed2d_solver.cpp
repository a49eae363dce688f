// The distributed solver on both of its rank meshes. Every behaviour runs
// once per mesh, under the suite named after the mesh's SolverKind:
// DistributedSolver / DistributedEquivalence run kDistributed's R x 1
// slabs, Distributed2DSolver / Distributed2DEquivalence run
// kDistributed2D's balanced tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"

namespace lbmib {
namespace {

using Mesh = Distributed2DSolver::Mesh;

SimulationParams small_params() {
  SimulationParams p = presets::tiny();
  p.body_force = {1e-5, 0.0, 0.0};
  return p;
}

SimulationParams channel_params() {
  SimulationParams p = small_params();
  p.boundary = BoundaryType::kChannel;
  return p;
}

SimulationParams cavity_params() {
  SimulationParams p;
  p.nx = 16;
  p.ny = 16;
  p.nz = 16;
  p.boundary = BoundaryType::kCavity;
  p.lid_velocity = {0.05, 0.0, 0.0};
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  return p;
}

SimulationParams inlet_outlet_params() {
  SimulationParams p;
  p.nx = 24;
  p.ny = 12;
  p.nz = 12;
  p.boundary = BoundaryType::kInletOutlet;
  p.inlet_velocity = {0.03, 0.0, 0.0};
  p.num_fibers = 5;
  p.nodes_per_fiber = 5;
  p.sheet_width = 4.0;
  p.sheet_height = 4.0;
  p.sheet_origin = {10.0, 4.0, 4.0};
  return p;
}

SimulationParams multi_sheet_params() {
  SimulationParams p = small_params();
  SheetSpec second;
  second.num_fibers = 4;
  second.nodes_per_fiber = 5;
  second.width = 2.0;
  second.height = 3.0;
  second.origin = {10.0, 5.0, 5.0};
  second.stretching_coeff = 0.02;
  second.bending_coeff = 0.002;
  p.extra_sheets.push_back(second);
  return p;
}

std::unique_ptr<Distributed2DSolver> make_dist(SimulationParams p,
                                               Mesh mesh, int ranks) {
  p.num_threads = ranks;
  return std::make_unique<Distributed2DSolver>(p, mesh);
}

/// `steps` of `p` on `ranks` ranks of `mesh` against the sequential
/// reference.
StateDiff diff_vs_sequential(const SimulationParams& p, Mesh mesh,
                             int ranks, Index steps) {
  SequentialSolver seq(p);
  seq.run(steps);
  const auto dist = make_dist(p, mesh, ranks);
  dist->run(steps);
  return compare_solvers(seq, *dist);
}

/// Equivalence against the sequential solver across rank counts — the
/// halo protocol must reproduce shared-memory streaming exactly (only
/// fiber interpolation reassociates floating-point sums). The suite
/// fixes the mesh, the parameter the rank count: slab counts include
/// primes, tile counts factor into different meshes (4 -> 2x2, 6 -> 3x2,
/// 8 -> 4x2, 9 -> 3x3).
template <Mesh kMesh>
class MeshEquivalence : public ::testing::TestWithParam<int> {
 protected:
  StateDiff run_vs_sequential(const SimulationParams& p,
                              Index steps) const {
    return diff_vs_sequential(p, kMesh, GetParam(), steps);
  }
};

using DistributedEquivalence = MeshEquivalence<Mesh::kSlabs>;
using Distributed2DEquivalence = MeshEquivalence<Mesh::kTiles>;

TEST_P(DistributedEquivalence, MatchesSequential) {
  const StateDiff diff = run_vs_sequential(small_params(), 8);
  EXPECT_LT(diff.max_any(), 1e-11) << diff.to_string();
}

TEST_P(Distributed2DEquivalence, PeriodicMatchesSequential) {
  const StateDiff diff = run_vs_sequential(small_params(), 8);
  EXPECT_LT(diff.max_any(), 1e-11) << diff.to_string();
}

TEST_P(DistributedEquivalence, ChannelFlowMatchesSequential) {
  EXPECT_LT(run_vs_sequential(channel_params(), 8).max_any(), 1e-11);
}

TEST_P(Distributed2DEquivalence, ChannelMatchesSequential) {
  EXPECT_LT(run_vs_sequential(channel_params(), 8).max_any(), 1e-11);
}

TEST_P(DistributedEquivalence, CavityMatchesSequential) {
  EXPECT_LT(run_vs_sequential(cavity_params(), 10).max_any(), 1e-12);
}

TEST_P(Distributed2DEquivalence, CavityMatchesSequential) {
  EXPECT_LT(run_vs_sequential(cavity_params(), 10).max_any(), 1e-12);
}

std::string ranks_name(const ::testing::TestParamInfo<int>& info) {
  return "r" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedEquivalence,
                         ::testing::Values(1, 2, 3, 4, 7, 8), ranks_name);
INSTANTIATE_TEST_SUITE_P(Ranks, Distributed2DEquivalence,
                         ::testing::Values(1, 2, 4, 6, 8, 9), ranks_name);

void expect_factory_mesh(SolverKind kind, std::string_view name, int rx,
                         int ry) {
  SimulationParams p = small_params();
  p.num_threads = 4;
  const auto solver = make_solver(kind, p);
  EXPECT_EQ(solver->name(), name);
  const auto* dist = dynamic_cast<const Distributed2DSolver*>(solver.get());
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(dist->ranks_x(), rx);
  EXPECT_EQ(dist->ranks_y(), ry);
  solver->run(2);
  EXPECT_EQ(solver->steps_completed(), 2);
}

TEST(DistributedSolver, AvailableThroughFactory) {
  expect_factory_mesh(SolverKind::kDistributed, "distributed", 4, 1);
}

TEST(Distributed2DSolver, AvailableThroughFactory) {
  expect_factory_mesh(SolverKind::kDistributed2D, "distributed2d", 2, 2);
}

TEST(DistributedSolver, MeshFactorization) {
  const auto dist = make_dist(small_params(), Mesh::kSlabs, 6);
  EXPECT_EQ(dist->ranks_x(), 6);
  EXPECT_EQ(dist->ranks_y(), 1);
}

TEST(Distributed2DSolver, MeshFactorization) {
  const auto dist = make_dist(small_params(), Mesh::kTiles, 6);
  EXPECT_EQ(dist->ranks_x(), 3);
  EXPECT_EQ(dist->ranks_y(), 2);
}

/// Every global (x, y) column belongs to exactly one non-empty tile.
void expect_tiles_partition(const Distributed2DSolver& dist) {
  const SimulationParams p = small_params();
  std::vector<int> owners(static_cast<Size>(p.nx * p.ny), 0);
  for (int r = 0; r < dist.ranks_x() * dist.ranks_y(); ++r) {
    const auto t = dist.tile_of(r);
    EXPECT_LT(t.x_lo, t.x_hi);
    EXPECT_LT(t.y_lo, t.y_hi);
    for (Index x = t.x_lo; x < t.x_hi; ++x) {
      for (Index y = t.y_lo; y < t.y_hi; ++y) {
        ++owners[static_cast<Size>(x * p.ny + y)];
      }
    }
  }
  EXPECT_EQ(std::count(owners.begin(), owners.end(), 1),
            static_cast<std::ptrdiff_t>(owners.size()));
}

TEST(DistributedSolver, SlabsPartitionTheDomain) {
  const auto dist = make_dist(small_params(), Mesh::kSlabs, 5);
  expect_tiles_partition(*dist);
  for (int r = 0; r < 5; ++r) {  // slabs span every y
    EXPECT_EQ(dist->tile_of(r).y_lo, 0);
    EXPECT_EQ(dist->tile_of(r).y_hi, 16);
  }
}

TEST(Distributed2DSolver, TilesPartitionTheDomain) {
  expect_tiles_partition(*make_dist(small_params(), Mesh::kTiles, 6));
}

TEST(DistributedSolver, RejectsMoreRanksThanColumns) {
  // 17 is prime, so either mesh is 17 x 1 — more x-ranks than nx = 16.
  EXPECT_THROW(make_dist(small_params(), Mesh::kSlabs, 17), Error);
}

TEST(Distributed2DSolver, RejectsTooManyRanks) {
  EXPECT_THROW(make_dist(small_params(), Mesh::kTiles, 17), Error);
}

/// The boundary ranks need two x-columns: the inlet takes its density
/// from the column behind it, the outlet its velocity.
void expect_inlet_outlet_needs_two_columns(Mesh mesh, int ranks) {
  SimulationParams p = small_params();  // nx = 16
  p.boundary = BoundaryType::kInletOutlet;
  p.inlet_velocity = {0.02, 0.0, 0.0};
  EXPECT_THROW(make_dist(p, mesh, ranks), Error);
}

TEST(DistributedSolver, InletOutletNeedsTwoColumnsPerBoundaryRank) {
  expect_inlet_outlet_needs_two_columns(Mesh::kSlabs, 16);  // 16 x 1
}

TEST(Distributed2DSolver, InletOutletNeedsTwoColumnsPerBoundaryRank) {
  expect_inlet_outlet_needs_two_columns(Mesh::kTiles, 22);  // 11 x 2
}

TEST(DistributedSolver, InletOutletMatchesSequential) {
  EXPECT_LT(
      diff_vs_sequential(inlet_outlet_params(), Mesh::kSlabs, 4, 10)
          .max_any(),
      1e-11);
}

TEST(Distributed2DSolver, InletOutletMatchesSequential) {
  // 3 x 2 mesh: the inlet spans two y-ranks.
  EXPECT_LT(
      diff_vs_sequential(inlet_outlet_params(), Mesh::kTiles, 6, 10)
          .max_any(),
      1e-11);
}

TEST(DistributedSolver, MultiSheetMatchesSequential) {
  EXPECT_LT(
      diff_vs_sequential(multi_sheet_params(), Mesh::kSlabs, 3, 6)
          .max_any(),
      1e-11);
}

TEST(Distributed2DSolver, MultiSheetMrtMatchesSequential) {
  SimulationParams p = multi_sheet_params();
  p.collision = CollisionModel::kMRT;
  EXPECT_LT(diff_vs_sequential(p, Mesh::kTiles, 4, 6).max_any(), 1e-11);
}

void expect_observer_sees_consistent_state(Mesh mesh) {
  const auto dist = make_dist(small_params(), mesh, 4);
  SequentialSolver reference(small_params());
  Real max_diff = 0.0;
  dist->run(
      6,
      [&](Solver& s, Index) {
        reference.run(3);
        max_diff =
            std::max(max_diff, compare_solvers(reference, s).max_any());
      },
      3);
  EXPECT_LT(max_diff, 1e-11);
}

TEST(DistributedSolver, ObserverSeesConsistentState) {
  expect_observer_sees_consistent_state(Mesh::kSlabs);
}

TEST(Distributed2DSolver, ObserverSeesConsistentState) {
  expect_observer_sees_consistent_state(Mesh::kTiles);
}

void expect_replicas_move_with_flow(Mesh mesh) {
  SimulationParams p = small_params();
  p.initial_velocity = {0.02, 0.0, 0.0};
  const auto dist = make_dist(p, mesh, 4);
  dist->run(10);
  // The base structure (rank 0's replica) moved with the flow.
  EXPECT_GT(dist->sheet().centroid().x, p.sheet_origin.x + 0.1);
}

TEST(DistributedSolver, StructureReplicasStayInSync) {
  expect_replicas_move_with_flow(Mesh::kSlabs);
}

TEST(Distributed2DSolver, StructureReplicasStayInSync) {
  expect_replicas_move_with_flow(Mesh::kTiles);
}

void expect_zero_fibers_match(Mesh mesh) {
  SimulationParams p = small_params();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  EXPECT_LT(diff_vs_sequential(p, mesh, 4, 5).max_any(), 1e-12);
}

/// Tiles one column wide in x: a message's sources lie in the ghost
/// column on its sender's side, which the cavity's x walls make differ
/// from the opposite ghost column.
void expect_one_column_tiles_match(Mesh mesh, int ranks) {
  SimulationParams p = cavity_params();
  p.nx = 4;
  p.ny = 8;
  p.nz = 8;
  EXPECT_LT(diff_vs_sequential(p, mesh, ranks, 6).max_any(), 1e-12);
}

TEST(DistributedSolver, OneColumnSlabsMatchSequential) {
  expect_one_column_tiles_match(Mesh::kSlabs, 4);
}

TEST(Distributed2DSolver, OneColumnTilesMatchSequential) {
  expect_one_column_tiles_match(Mesh::kTiles, 8);  // 4 x 2 tiles
}

TEST(DistributedSolver, ZeroFiberSimulation) {
  expect_zero_fibers_match(Mesh::kSlabs);
}

TEST(Distributed2DSolver, ZeroFiberSimulation) {
  expect_zero_fibers_match(Mesh::kTiles);
}

}  // namespace
}  // namespace lbmib
