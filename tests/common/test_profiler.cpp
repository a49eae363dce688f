#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "common/profiler.hpp"

namespace lbmib {
namespace {

TEST(KernelProfiler, StartsEmpty) {
  KernelProfiler p;
  EXPECT_EQ(p.total_seconds(), 0.0);
  for (int k = 0; k < kNumKernels; ++k) {
    EXPECT_EQ(p.seconds(static_cast<Kernel>(k)), 0.0);
  }
}

TEST(KernelProfiler, AddAccumulates) {
  KernelProfiler p;
  p.add(Phase::kCollide, 1.0);
  p.add(Phase::kCollide, 0.5);
  p.add(Phase::kStream, 0.25);
  EXPECT_DOUBLE_EQ(p.seconds(Kernel::kCollision), 1.5);
  EXPECT_DOUBLE_EQ(p.seconds(Kernel::kStreaming), 0.25);
  EXPECT_DOUBLE_EQ(p.total_seconds(), 1.75);
}

TEST(KernelProfiler, ScopeMeasuresElapsedTime) {
  KernelProfiler p;
  {
    KernelProfiler::Scope scope(p, Phase::kMoveFibers);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(p.seconds(Kernel::kMoveFibers), 0.009);
  EXPECT_LT(p.seconds(Kernel::kMoveFibers), 1.0);
}

TEST(KernelProfiler, MergeAddsPerKernel) {
  KernelProfiler a, b;
  a.add(Phase::kCollide, 1.0);
  b.add(Phase::kCollide, 2.0);
  b.add(Phase::kSpread, 3.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds(Kernel::kCollision), 3.0);
  EXPECT_DOUBLE_EQ(a.seconds(Kernel::kSpreadForce), 3.0);
}

TEST(KernelProfiler, RankedRowsSortedDescending) {
  KernelProfiler p;
  p.add(Phase::kCollide, 5.0);
  p.add(Phase::kUpdateVelocity, 3.0);
  p.add(Phase::kCopyDf, 1.0);
  const auto rows = p.ranked_rows();
  ASSERT_EQ(rows.size(), static_cast<Size>(kNumKernels));
  EXPECT_EQ(rows[0].kernel, Kernel::kCollision);
  EXPECT_EQ(rows[1].kernel, Kernel::kUpdateVelocity);
  EXPECT_EQ(rows[2].kernel, Kernel::kCopyDistribution);
  for (Size i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].seconds, rows[i].seconds);
  }
}

TEST(KernelProfiler, PercentagesSumToHundred) {
  KernelProfiler p;
  p.add(Phase::kCollide, 2.0);
  p.add(Phase::kStream, 1.0);
  p.add(Phase::kCopyDf, 1.0);
  double total = 0.0;
  for (const auto& row : p.ranked_rows()) total += row.percent_of_total;
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(KernelProfiler, PaperIndicesMatchAlgorithmOrder) {
  EXPECT_EQ(kernel_paper_index(Kernel::kBendingForce), 1);
  EXPECT_EQ(kernel_paper_index(Kernel::kSpreadForce), 4);
  EXPECT_EQ(kernel_paper_index(Kernel::kCollision), 5);
  EXPECT_EQ(kernel_paper_index(Kernel::kCopyDistribution), 9);
}

TEST(KernelProfiler, KernelNamesMatchPaper) {
  EXPECT_EQ(kernel_name(Kernel::kCollision), "compute_fluid_collision");
  EXPECT_EQ(kernel_name(Kernel::kStreaming),
            "stream_fluid_velocity_distribution");
  EXPECT_EQ(kernel_name(Kernel::kSpreadForce),
            "spread_force_from_fibers_to_fluid");
}

TEST(KernelProfiler, ReportContainsAllKernels) {
  KernelProfiler p;
  p.add(Phase::kCollide, 1.0);
  const std::string report = p.report();
  for (int k = 0; k < kNumKernels; ++k) {
    EXPECT_NE(report.find(std::string(kernel_name(static_cast<Kernel>(k)))),
              std::string::npos);
  }
}

TEST(KernelProfiler, KernelSecondsSumTheRowsThatBillIt) {
  KernelProfiler p;
  p.add(Phase::kCollide, 1.0);
  p.add(Phase::kCollideStream, 2.0);
  p.add(Phase::kTaskUpdateCopy, 0.5);
  p.add(Phase::kStream, 0.25);
  p.add(Phase::kExchangeHalos, 0.125);
  EXPECT_DOUBLE_EQ(p.seconds(Phase::kCollideStream), 2.0);
  EXPECT_DOUBLE_EQ(p.seconds(Kernel::kCollision), 3.5);
  EXPECT_DOUBLE_EQ(p.seconds(Kernel::kStreaming), 0.375);
  EXPECT_DOUBLE_EQ(p.total_seconds(), 3.875);
  // The Table-I report ranks kernels, so the fused rows land in theirs.
  EXPECT_EQ(p.ranked_rows().front().kernel, Kernel::kCollision);
  EXPECT_DOUBLE_EQ(p.ranked_rows().front().seconds, 3.5);
}

TEST(PhaseTable, KernelRowsComeFirstInKernelOrder) {
  for (int k = 0; k < kNumKernels; ++k) {
    const Kernel kernel = static_cast<Kernel>(k);
    EXPECT_EQ(phase_row(static_cast<Phase>(k)).bills, kernel);
    EXPECT_STREQ(kernel_short_name(kernel),
                 phase_name(static_cast<Phase>(k)));
  }
  EXPECT_STREQ(kernel_short_name(Kernel::kCollision), "collide");
  EXPECT_STREQ(kernel_short_name(Kernel::kCopyDistribution), "copy_df");
  // A value past the nine kernels names no phase row.
  const Kernel past_end = static_cast<Kernel>(kNumKernels);
  EXPECT_STREQ(kernel_short_name(past_end), "unknown");
  EXPECT_EQ(kernel_name(past_end), "unknown_kernel");
}

TEST(PhaseTable, NamesAreUniqueAndRowsBillTheirKernels) {
  std::set<std::string> names;
  for (const PhaseRow& row : kPhaseTable) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
  }
  EXPECT_EQ(phase_row(Phase::kResetForces).bills,
            Kernel::kCopyDistribution);
  EXPECT_EQ(phase_row(Phase::kSwapDf).bills, Kernel::kCopyDistribution);
  EXPECT_EQ(phase_row(Phase::kTaskUpdateCopy).bills, Kernel::kCollision);
  EXPECT_EQ(phase_row(Phase::kExchangeHalos).bills, Kernel::kStreaming);
  EXPECT_EQ(phase_row(Phase::kExchangeHalos).cat, PhaseCat::kHalo);
  EXPECT_EQ(phase_row(Phase::kTaskCollideStream).cat, PhaseCat::kTask);
}

TEST(KernelProfiler, ClearResets) {
  KernelProfiler p;
  p.add(Phase::kCollide, 1.0);
  p.clear();
  EXPECT_EQ(p.total_seconds(), 0.0);
}

TEST(KernelProfiler, EmptyReportHasZeroPercent) {
  KernelProfiler p;
  for (const auto& row : p.ranked_rows()) {
    EXPECT_EQ(row.percent_of_total, 0.0);
  }
}

}  // namespace
}  // namespace lbmib
