#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/verification.hpp"
#include "ib/fiber_sheet.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {
namespace {

TEST(StateDiff, MaxAnyPicksLargest) {
  StateDiff d;
  d.max_df = 0.1;
  d.max_velocity = 0.5;
  d.max_position = 0.3;
  EXPECT_DOUBLE_EQ(d.max_any(), 0.5);
  EXPECT_FALSE(d.within(0.4));
  EXPECT_TRUE(d.within(0.5));
}

TEST(StateDiff, ToStringListsComponents) {
  StateDiff d;
  const std::string s = d.to_string();
  EXPECT_NE(s.find("df="), std::string::npos);
  EXPECT_NE(s.find("rho="), std::string::npos);
}

TEST(CompareFluid, IdenticalGridsDiffZero) {
  FluidGrid a(4, 4, 4, 1.0, {0.01, 0.0, 0.0});
  FluidGrid b(4, 4, 4, 1.0, {0.01, 0.0, 0.0});
  const StateDiff d = compare_fluid(a, b);
  EXPECT_EQ(d.max_any(), 0.0);
}

TEST(CompareFluid, DetectsDfDifference) {
  FluidGrid a(4, 4, 4);
  FluidGrid b(4, 4, 4);
  b.df(3, 7) += 0.25;
  const StateDiff d = compare_fluid(a, b);
  EXPECT_DOUBLE_EQ(d.max_df, 0.25);
  EXPECT_EQ(d.max_velocity, 0.0);
}

TEST(CompareFluid, DetectsVelocityAndDensityDifference) {
  FluidGrid a(4, 4, 4);
  FluidGrid b(4, 4, 4);
  b.set_velocity(5, {0.0, -0.125, 0.0});
  b.rho(9) = 1.5;
  const StateDiff d = compare_fluid(a, b);
  EXPECT_DOUBLE_EQ(d.max_velocity, 0.125);
  EXPECT_DOUBLE_EQ(d.max_density, 0.5);
}

TEST(CompareFluid, DetectsForceFieldDifference) {
  FluidGrid a(4, 4, 4);
  FluidGrid b(4, 4, 4);
  b.fz(11) = -0.375;
  const StateDiff d = compare_fluid(a, b);
  EXPECT_DOUBLE_EQ(d.max_fluid_force, 0.375);
  EXPECT_DOUBLE_EQ(d.max_any(), 0.375);
  EXPECT_EQ(d.max_df, 0.0);
  EXPECT_NE(d.to_string().find("f=0.375"), std::string::npos);
}

TEST(CompareFluid, RejectsDimensionMismatch) {
  FluidGrid a(4, 4, 4);
  FluidGrid b(4, 4, 8);
  EXPECT_THROW(compare_fluid(a, b), Error);
}

TEST(CompareSheets, DetectsPositionAndForceDifference) {
  FiberSheet a(3, 3, 2.0, 2.0, {}, 0.0, 0.0);
  FiberSheet b(3, 3, 2.0, 2.0, {}, 0.0, 0.0);
  b.position(4) += Vec3{0.0, 0.0, 0.75};
  b.elastic_force(2) = {0.5, 0.0, 0.0};
  const StateDiff d = compare_sheets(a, b);
  EXPECT_DOUBLE_EQ(d.max_position, 0.75);
  EXPECT_DOUBLE_EQ(d.max_force, 0.5);
}

TEST(CompareSheets, RejectsDimensionMismatch) {
  FiberSheet a(3, 3, 2.0, 2.0, {}, 0.0, 0.0);
  FiberSheet b(3, 4, 2.0, 2.0, {}, 0.0, 0.0);
  EXPECT_THROW(compare_sheets(a, b), Error);
}

}  // namespace
}  // namespace lbmib
