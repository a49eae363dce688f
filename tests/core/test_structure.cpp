// Multi-sheet immersed structures: the paper's "a 3D flexible structure
// can be comprised of a number of 2-D sheets".
#include <gtest/gtest.h>

#include <cstdio>

#include "common/error.hpp"
#include "core/cube_solver.hpp"
#include "core/openmp_solver.hpp"
#include "core/sequential_solver.hpp"
#include "core/verification.hpp"
#include "io/checkpoint.hpp"

namespace lbmib {
namespace {

SimulationParams two_sheet_params() {
  SimulationParams p = presets::tiny();
  p.initial_velocity = {0.02, 0.0, 0.0};
  SheetSpec second;
  second.num_fibers = 5;
  second.nodes_per_fiber = 7;
  second.width = 3.0;
  second.height = 4.0;
  second.origin = {10.0, 4.0, 4.0};
  second.stretching_coeff = 0.03;
  second.bending_coeff = 0.003;
  second.pin_mode = PinMode::kLeadingEdge;
  p.extra_sheets.push_back(second);
  return p;
}

TEST(Structure, MakeStructureBuildsAllSheets) {
  const Structure s = make_structure(two_sheet_params());
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].num_fibers(), presets::tiny().num_fibers);
  EXPECT_EQ(s[1].num_fibers(), 5);
  EXPECT_EQ(s[1].nodes_per_fiber(), 7);
  EXPECT_TRUE(s[1].pinned(s[1].id(0, 0)));  // leading-edge pin applied
}

TEST(Structure, EmptyParamsYieldOneEmptySheet) {
  SimulationParams p = presets::tiny();
  p.num_fibers = 0;
  p.nodes_per_fiber = 0;
  const Structure s = make_structure(p);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].num_nodes(), 0u);
}

TEST(Structure, CountsAggregateOverSheets) {
  const Structure s = make_structure(two_sheet_params());
  EXPECT_EQ(structure_num_fibers(s), presets::tiny().num_fibers + 5);
  EXPECT_EQ(structure_num_nodes(s),
            presets::tiny().fiber_nodes() + 35u);
}

TEST(Structure, ParamsFiberNodesIncludeExtraSheets) {
  EXPECT_EQ(two_sheet_params().fiber_nodes(),
            presets::tiny().fiber_nodes() + 35u);
}

TEST(Structure, ValidateRejectsEmptyExtraSheet) {
  SimulationParams p = presets::tiny();
  p.extra_sheets.push_back(SheetSpec{});
  EXPECT_THROW(p.validate(), Error);
}

TEST(Structure, SolverExposesAllSheets) {
  SequentialSolver solver(two_sheet_params());
  ASSERT_EQ(solver.structure().size(), 2u);
  EXPECT_EQ(&solver.sheet(), &solver.structure()[0]);
}

TEST(Structure, BothSheetsAdvectWithTheFlow) {
  SequentialSolver solver(two_sheet_params());
  const Real x0_a = solver.structure()[0].centroid().x;
  const Real x0_b = solver.structure()[1].centroid().x;
  solver.run(10);
  EXPECT_GT(solver.structure()[0].centroid().x, x0_a + 0.1);
  // Second sheet is leading-edge pinned: it deforms but its pinned column
  // stays.
  EXPECT_GT(solver.structure()[1].centroid().x, x0_b);
  EXPECT_DOUBLE_EQ(solver.structure()[1].position(0, 0).x, 10.0);
}

TEST(Structure, OpenMPMatchesSequentialWithTwoSheets) {
  SimulationParams p = two_sheet_params();
  SequentialSolver seq(p);
  p.num_threads = 4;
  OpenMPSolver omp(p);
  seq.run(8);
  omp.run(8);
  EXPECT_EQ(compare_solvers(seq, omp).max_any(), 0.0);
}

TEST(Structure, CubeMatchesSequentialWithTwoSheets) {
  SimulationParams p = two_sheet_params();
  SequentialSolver seq(p);
  p.num_threads = 4;
  CubeSolver cube(p);
  seq.run(8);
  cube.run(8);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
}

TEST(Structure, CubeCyclicFiberDistributionWithTwoSheets) {
  SimulationParams p = two_sheet_params();
  SequentialSolver seq(p);
  p.num_threads = 3;
  CubeSolver cube(p, DistributionPolicy::kCyclic);
  seq.run(6);
  cube.run(6);
  EXPECT_LT(compare_solvers(seq, cube).max_any(), 1e-11);
}

TEST(Structure, CheckpointRoundTripMultiSheet) {
  const std::string path =
      ::testing::TempDir() + "lbmib_structure_checkpoint.bin";
  SimulationParams p = two_sheet_params();
  SequentialSolver a(p);
  a.run(5);
  FluidGrid grid(p.nx, p.ny, p.nz);
  a.snapshot_fluid(grid);
  save_checkpoint(path, grid, a.structure());

  SequentialSolver b(p);
  FluidGrid grid2(p.nx, p.ny, p.nz);
  load_checkpoint(path, grid2, b.structure());
  EXPECT_EQ(compare_structures(a.structure(), b.structure()).max_any(),
            0.0);
  std::remove(path.c_str());
}

TEST(Structure, CheckpointRejectsSheetCountMismatch) {
  const std::string path =
      ::testing::TempDir() + "lbmib_structure_checkpoint2.bin";
  SimulationParams p = two_sheet_params();
  SequentialSolver a(p);
  FluidGrid grid(p.nx, p.ny, p.nz);
  a.snapshot_fluid(grid);
  save_checkpoint(path, grid, a.structure());

  Structure one_sheet = make_structure(presets::tiny());
  EXPECT_THROW(load_checkpoint(path, grid, one_sheet), Error);
  std::remove(path.c_str());
}

TEST(Structure, SingleAndMultiCheckpointFormatsAgree) {
  // A structure of one sheet and the single-sheet API produce mutually
  // readable files.
  const std::string path =
      ::testing::TempDir() + "lbmib_structure_checkpoint3.bin";
  SimulationParams p = presets::tiny();
  SequentialSolver a(p);
  a.run(3);
  FluidGrid grid(p.nx, p.ny, p.nz);
  a.snapshot_fluid(grid);
  save_checkpoint(path, grid, a.structure());  // multi-sheet writer

  FiberSheet sheet(p);
  FluidGrid grid2(p.nx, p.ny, p.nz);
  load_checkpoint(path, grid2, sheet);  // single-sheet reader
  EXPECT_EQ(compare_sheets(a.sheet(), sheet).max_any(), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lbmib
