#include "cube/distribution.hpp"

#include "common/error.hpp"

namespace lbmib {

std::string_view distribution_policy_name(DistributionPolicy p) {
  switch (p) {
    case DistributionPolicy::kBlock:
      return "block";
    case DistributionPolicy::kCyclic:
      return "cyclic";
    case DistributionPolicy::kBlockCyclic:
      return "block-cyclic";
  }
  return "?";
}

CubeDistribution::CubeDistribution(Index cubes_x, Index cubes_y,
                                   Index cubes_z, const ThreadMesh& mesh,
                                   DistributionPolicy policy,
                                   Index block_factor)
    : ncx_(cubes_x),
      ncy_(cubes_y),
      ncz_(cubes_z),
      mesh_(mesh),
      policy_(policy),
      block_factor_(block_factor) {
  require(cubes_x >= 1 && cubes_y >= 1 && cubes_z >= 1,
          "cube grid must be non-empty");
  require(mesh.size() >= 1, "thread mesh must be non-empty");
  require(block_factor >= 1, "block factor must be at least 1");
}

void CubeDistribution::set_thread_permutation(std::vector<int> perm) {
  require(perm.size() == static_cast<Size>(mesh_.size()),
          "permutation size must equal the thread count");
  std::vector<bool> seen(perm.size(), false);
  for (int t : perm) {
    require(t >= 0 && static_cast<Size>(t) < perm.size() &&
                !seen[static_cast<Size>(t)],
            "thread permutation must be a bijection");
    seen[static_cast<Size>(t)] = true;
  }
  permutation_ = std::move(perm);
}

int CubeDistribution::owner_1d(Index i, Index count, int threads) const {
  switch (policy_) {
    case DistributionPolicy::kBlock:
      // Thread t owns [t*count/threads, (t+1)*count/threads).
      return static_cast<int>(i * threads / count);
    case DistributionPolicy::kCyclic:
      return static_cast<int>(i % threads);
    case DistributionPolicy::kBlockCyclic:
      return static_cast<int>((i / block_factor_) % threads);
  }
  return 0;
}

Size CubeDistribution::cubes_owned(int tid) const {
  Size owned = 0;
  for (Index cx = 0; cx < ncx_; ++cx) {
    for (Index cy = 0; cy < ncy_; ++cy) {
      for (Index cz = 0; cz < ncz_; ++cz) {
        if (cube2thread(cx, cy, cz) == tid) ++owned;
      }
    }
  }
  return owned;
}

std::vector<int> CubeDistribution::owner_table() const {
  std::vector<int> owner;
  owner.reserve(static_cast<Size>(ncx_ * ncy_ * ncz_));
  for (Index cx = 0; cx < ncx_; ++cx) {
    for (Index cy = 0; cy < ncy_; ++cy) {
      for (Index cz = 0; cz < ncz_; ++cz) {
        owner.push_back(cube2thread(cx, cy, cz));
      }
    }
  }
  return owner;
}

int fiber2thread(Index fiber, Index num_fibers, int num_threads,
                 DistributionPolicy policy) {
  require(num_fibers >= 1, "no fibers to distribute");
  switch (policy) {
    case DistributionPolicy::kBlock:
      return static_cast<int>(fiber * num_threads / num_fibers);
    case DistributionPolicy::kCyclic:
    case DistributionPolicy::kBlockCyclic:
      return static_cast<int>(fiber % num_threads);
  }
  return 0;
}

}  // namespace lbmib
