#include <gtest/gtest.h>

#include <vector>

#include "cube/distribution.hpp"

namespace lbmib {
namespace {

using Params = std::tuple<DistributionPolicy, int /*threads*/,
                          Index /*ncx*/, Index /*ncy*/, Index /*ncz*/>;

class DistributionTest : public ::testing::TestWithParam<Params> {
 protected:
  CubeDistribution make() const {
    const auto [policy, threads, ncx, ncy, ncz] = GetParam();
    return CubeDistribution(ncx, ncy, ncz, balanced_mesh(threads), policy);
  }
};

TEST_P(DistributionTest, EveryCubeHasAValidOwner) {
  const auto [policy, threads, ncx, ncy, ncz] = GetParam();
  const CubeDistribution dist = make();
  for (Index cx = 0; cx < ncx; ++cx) {
    for (Index cy = 0; cy < ncy; ++cy) {
      for (Index cz = 0; cz < ncz; ++cz) {
        const int tid = dist.cube2thread(cx, cy, cz);
        EXPECT_GE(tid, 0);
        EXPECT_LT(tid, threads);
      }
    }
  }
}

TEST_P(DistributionTest, OwnershipIsDeterministic) {
  const auto [policy, threads, ncx, ncy, ncz] = GetParam();
  const CubeDistribution a = make();
  const CubeDistribution b = make();
  for (Index cx = 0; cx < ncx; ++cx) {
    for (Index cy = 0; cy < ncy; ++cy) {
      for (Index cz = 0; cz < ncz; ++cz) {
        EXPECT_EQ(a.cube2thread(cx, cy, cz), b.cube2thread(cx, cy, cz));
      }
    }
  }
}

TEST_P(DistributionTest, OwnedCountsSumToTotal) {
  const auto [policy, threads, ncx, ncy, ncz] = GetParam();
  const CubeDistribution dist = make();
  Size total = 0;
  for (int t = 0; t < threads; ++t) total += dist.cubes_owned(t);
  EXPECT_EQ(total, static_cast<Size>(ncx * ncy * ncz));
}

TEST_P(DistributionTest, LoadIsBalancedWhenDivisible) {
  const auto [policy, threads, ncx, ncy, ncz] = GetParam();
  const CubeDistribution dist = make();
  const ThreadMesh mesh = balanced_mesh(threads);
  // Only assert perfect balance when every mesh dimension divides the
  // corresponding cube count.
  if (ncx % mesh.p != 0 || ncy % mesh.q != 0 || ncz % mesh.r != 0) {
    GTEST_SKIP() << "mesh does not divide grid";
  }
  const Size expected =
      static_cast<Size>(ncx * ncy * ncz) / static_cast<Size>(threads);
  for (int t = 0; t < threads; ++t) {
    EXPECT_EQ(dist.cubes_owned(t), expected) << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributionTest,
    ::testing::Combine(
        ::testing::Values(DistributionPolicy::kBlock,
                          DistributionPolicy::kCyclic,
                          DistributionPolicy::kBlockCyclic),
        ::testing::Values(1, 2, 4, 8),
        ::testing::Values<Index>(2, 4, 8),
        ::testing::Values<Index>(2, 4),
        ::testing::Values<Index>(2, 4)),
    [](const auto& info) {
      const DistributionPolicy policy = std::get<0>(info.param);
      const std::string policy_name =
          policy == DistributionPolicy::kBlock
              ? "block"
              : (policy == DistributionPolicy::kCyclic ? "cyclic"
                                                       : "blockcyclic");
      return policy_name + "_t" + std::to_string(std::get<1>(info.param)) +
             "_c" + std::to_string(std::get<2>(info.param)) +
             std::to_string(std::get<3>(info.param)) +
             std::to_string(std::get<4>(info.param));
    });

TEST(Distribution, PaperFigure6Mapping) {
  // Figure 6: a 4x4x4 fluid grid as 2x2x2 cubes of dimension 2, mapped to
  // a 2x2x2 thread mesh with block distribution: each thread owns exactly
  // the cube at its own mesh coordinate.
  const ThreadMesh mesh{2, 2, 2};
  const CubeDistribution dist(2, 2, 2, mesh, DistributionPolicy::kBlock);
  for (Index cx = 0; cx < 2; ++cx) {
    for (Index cy = 0; cy < 2; ++cy) {
      for (Index cz = 0; cz < 2; ++cz) {
        EXPECT_EQ(dist.cube2thread(cx, cy, cz),
                  mesh.thread_id(static_cast<int>(cx), static_cast<int>(cy),
                                 static_cast<int>(cz)));
      }
    }
  }
}

TEST(Distribution, BlockKeepsContiguousRuns) {
  const CubeDistribution dist(8, 1, 1, ThreadMesh{2, 1, 1},
                              DistributionPolicy::kBlock);
  for (Index cx = 0; cx < 4; ++cx) EXPECT_EQ(dist.cube2thread(cx, 0, 0), 0);
  for (Index cx = 4; cx < 8; ++cx) EXPECT_EQ(dist.cube2thread(cx, 0, 0), 1);
}

TEST(Distribution, CyclicAlternates) {
  const CubeDistribution dist(8, 1, 1, ThreadMesh{2, 1, 1},
                              DistributionPolicy::kCyclic);
  for (Index cx = 0; cx < 8; ++cx) {
    EXPECT_EQ(dist.cube2thread(cx, 0, 0), static_cast<int>(cx % 2));
  }
}

TEST(Distribution, BlockCyclicDealsRuns) {
  const CubeDistribution dist(8, 1, 1, ThreadMesh{2, 1, 1},
                              DistributionPolicy::kBlockCyclic, 2);
  const int expected[8] = {0, 0, 1, 1, 0, 0, 1, 1};
  for (Index cx = 0; cx < 8; ++cx) {
    EXPECT_EQ(dist.cube2thread(cx, 0, 0), expected[cx]);
  }
}

TEST(Fiber2Thread, BlockPartition) {
  EXPECT_EQ(fiber2thread(0, 8, 2), 0);
  EXPECT_EQ(fiber2thread(3, 8, 2), 0);
  EXPECT_EQ(fiber2thread(4, 8, 2), 1);
  EXPECT_EQ(fiber2thread(7, 8, 2), 1);
}

TEST(Fiber2Thread, CyclicPartition) {
  for (Index f = 0; f < 8; ++f) {
    EXPECT_EQ(fiber2thread(f, 8, 3, DistributionPolicy::kCyclic),
              static_cast<int>(f % 3));
  }
}

TEST(Fiber2Thread, AllFibersCoveredMoreThreadsThanFibers) {
  for (Index f = 0; f < 3; ++f) {
    const int tid = fiber2thread(f, 3, 16);
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, 16);
  }
}

TEST(Distribution, OwnerTableIsCube2ThreadInCubeIdOrder) {
  constexpr Index kNcx = 3, kNcy = 4, kNcz = 5;
  for (DistributionPolicy policy :
       {DistributionPolicy::kBlock, DistributionPolicy::kCyclic,
        DistributionPolicy::kBlockCyclic}) {
    const CubeDistribution dist(kNcx, kNcy, kNcz, balanced_mesh(6), policy,
                                2);
    const std::vector<int> owner = dist.owner_table();
    ASSERT_EQ(owner.size(), static_cast<Size>(kNcx * kNcy * kNcz));
    for (Index cx = 0; cx < kNcx; ++cx) {
      for (Index cy = 0; cy < kNcy; ++cy) {
        for (Index cz = 0; cz < kNcz; ++cz) {
          EXPECT_EQ(owner[static_cast<Size>((cx * kNcy + cy) * kNcz + cz)],
                    dist.cube2thread(cx, cy, cz));
        }
      }
    }
  }
}

TEST(Distribution, PolicyNames) {
  EXPECT_EQ(distribution_policy_name(DistributionPolicy::kBlock), "block");
  EXPECT_EQ(distribution_policy_name(DistributionPolicy::kCyclic), "cyclic");
  EXPECT_EQ(distribution_policy_name(DistributionPolicy::kBlockCyclic),
            "block-cyclic");
}

}  // namespace
}  // namespace lbmib
