#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "ib/fiber_sheet.hpp"
#include "io/vtk_writer.hpp"
#include "lbm/fluid_grid.hpp"
#include "temp_path.hpp"

namespace lbmib {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class VtkWriterTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = test_temp_path("lbmib_vtk_test", ".vtk");
};

TEST_F(VtkWriterTest, FluidFileHasLegacyHeaderAndFields) {
  FluidGrid grid(3, 4, 5, 1.0, {0.01, 0.02, 0.03});
  write_fluid_vtk(grid, path_);
  const std::string content = slurp(path_);
  EXPECT_NE(content.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(content.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(content.find("DIMENSIONS 3 4 5"), std::string::npos);
  EXPECT_NE(content.find("POINT_DATA 60"), std::string::npos);
  EXPECT_NE(content.find("SCALARS density"), std::string::npos);
  EXPECT_NE(content.find("VECTORS velocity"), std::string::npos);
  EXPECT_NE(content.find("VECTORS force"), std::string::npos);
}

TEST_F(VtkWriterTest, FluidValuesRoundTripThroughText) {
  FluidGrid grid(2, 2, 2, 1.25, {0.5, 0.0, 0.0});
  write_fluid_vtk(grid, path_);
  const std::string content = slurp(path_);
  EXPECT_NE(content.find("1.25"), std::string::npos);
  EXPECT_NE(content.find("0.5 0 0"), std::string::npos);
}

TEST_F(VtkWriterTest, SheetFileHasPolylinesAndForces) {
  FiberSheet sheet(3, 4, 2.0, 3.0, {1.0, 2.0, 3.0}, 0.0, 0.0);
  sheet.elastic_force(0) = {9.0, 0.0, 0.0};
  write_sheet_vtk(sheet, path_);
  const std::string content = slurp(path_);
  EXPECT_NE(content.find("DATASET POLYDATA"), std::string::npos);
  EXPECT_NE(content.find("POINTS 12 double"), std::string::npos);
  EXPECT_NE(content.find("LINES 3 15"), std::string::npos);  // 3*(4+1)
  EXPECT_NE(content.find("VECTORS elastic_force"), std::string::npos);
  EXPECT_NE(content.find("9 0 0"), std::string::npos);
}

TEST_F(VtkWriterTest, SheetPointsMatchPositions) {
  FiberSheet sheet(2, 2, 1.0, 1.0, {7.5, 8.25, 9.125}, 0.0, 0.0);
  write_sheet_vtk(sheet, path_);
  const std::string content = slurp(path_);
  EXPECT_NE(content.find("7.5 8.25 9.125"), std::string::npos);
}

TEST_F(VtkWriterTest, ObservablesFileHasDerivedFields) {
  FluidGrid grid(4, 4, 4, 1.5, {0.02, 0.0, 0.0});
  write_observables_vtk(grid, 0.8, path_);
  const std::string content = slurp(path_);
  EXPECT_NE(content.find("SCALARS pressure"), std::string::npos);
  EXPECT_NE(content.find("VECTORS vorticity"), std::string::npos);
  EXPECT_NE(content.find("SCALARS strain_rate_norm"), std::string::npos);
  // pressure = cs^2 rho = 0.5
  EXPECT_NE(content.find("0.5"), std::string::npos);
}

TEST_F(VtkWriterTest, ThrowsOnUnwritablePath) {
  FluidGrid grid(2, 2, 2);
  EXPECT_THROW(write_fluid_vtk(grid, "/nonexistent_dir_xyz/out.vtk"),
               Error);
  FiberSheet sheet(2, 2, 1.0, 1.0, {}, 0.0, 0.0);
  EXPECT_THROW(write_sheet_vtk(sheet, "/nonexistent_dir_xyz/out.vtk"),
               Error);
}

}  // namespace
}  // namespace lbmib
