#include <gtest/gtest.h>

#include "perfmodel/imbalance.hpp"

namespace lbmib::perfmodel {
namespace {

KernelProfiler with_total(double collision, double streaming = 0.0) {
  KernelProfiler p;
  p.add(Phase::kCollide, collision);
  p.add(Phase::kStream, streaming);
  return p;
}

TEST(Imbalance, PerfectBalanceIsZero) {
  std::vector<KernelProfiler> profiles = {with_total(1.0), with_total(1.0),
                                          with_total(1.0)};
  EXPECT_DOUBLE_EQ(total_imbalance(profiles), 0.0);
}

TEST(Imbalance, KnownSplit) {
  // times 2.0 and 1.0: max 2, avg 1.5 -> (2-1.5)/2 = 0.25.
  std::vector<KernelProfiler> profiles = {with_total(2.0), with_total(1.0)};
  EXPECT_DOUBLE_EQ(total_imbalance(profiles), 0.25);
}

TEST(Imbalance, OneIdleThread) {
  std::vector<KernelProfiler> profiles = {with_total(1.0), with_total(0.0)};
  EXPECT_DOUBLE_EQ(total_imbalance(profiles), 0.5);
}

TEST(Imbalance, EmptyAndZeroProfilesAreZero) {
  EXPECT_EQ(total_imbalance({}), 0.0);
  std::vector<KernelProfiler> zeros(3);
  EXPECT_EQ(total_imbalance(zeros), 0.0);
}

TEST(Imbalance, PerKernelMetric) {
  std::vector<KernelProfiler> profiles = {with_total(2.0, 1.0),
                                          with_total(2.0, 3.0)};
  EXPECT_DOUBLE_EQ(kernel_imbalance(profiles, Kernel::kCollision), 0.0);
  EXPECT_DOUBLE_EQ(kernel_imbalance(profiles, Kernel::kStreaming),
                   (3.0 - 2.0) / 3.0);
}

TEST(Imbalance, TotalUsesSumOfKernels) {
  // Thread A: 2+2=4; thread B: 3+3=6. max 6, avg 5 -> 1/6.
  std::vector<KernelProfiler> profiles = {with_total(2.0, 2.0),
                                          with_total(3.0, 3.0)};
  EXPECT_NEAR(total_imbalance(profiles), 1.0 / 6.0, 1e-12);
}

}  // namespace
}  // namespace lbmib::perfmodel
