// Data distribution functions of the cube-centric algorithm.
//
// Section V-A: given n threads laid out as a P x Q x R mesh, the
// user-definable function `cube2thread(cx, cy, cz)` maps every cube to its
// owner thread, and `fiber2thread(f)` maps every fiber to a thread. The
// paper names block, cyclic, and block-cyclic distributions; all three are
// implemented, and the bench/ablation_distribution.cpp study compares them.
#pragma once

#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "parallel/mesh.hpp"

namespace lbmib {

enum class DistributionPolicy { kBlock, kCyclic, kBlockCyclic };

std::string_view distribution_policy_name(DistributionPolicy p);

/// Maps cubes of an ncx x ncy x ncz cube grid onto a thread mesh.
class CubeDistribution {
 public:
  /// `block_factor` only matters for kBlockCyclic: cubes are dealt to
  /// threads in runs of `block_factor` per dimension.
  CubeDistribution(Index cubes_x, Index cubes_y, Index cubes_z,
                   const ThreadMesh& mesh,
                   DistributionPolicy policy = DistributionPolicy::kBlock,
                   Index block_factor = 1);

  /// Owner thread of cube (cx, cy, cz). This is the paper's
  /// int cube2thread(cube_x, cube_y, cube_z).
  int cube2thread(Index cx, Index cy, Index cz) const {
    const int t = mesh_.thread_id(owner_1d(cx, ncx_, mesh_.p),
                                  owner_1d(cy, ncy_, mesh_.q),
                                  owner_1d(cz, ncz_, mesh_.r));
    return permutation_.empty() ? t
                                : permutation_[static_cast<Size>(t)];
  }

  /// Remap mesh-logical owner ids to physical thread ids (e.g. the
  /// NUMA-hierarchical layout of numa_distribution.hpp). `perm` must be a
  /// bijection on [0, mesh().size()).
  void set_thread_permutation(std::vector<int> perm);

  /// Number of cubes owned by thread `tid` (for balance checks).
  Size cubes_owned(int tid) const;

  /// cube2thread of every cube, indexed by cube id (x-major, the
  /// CubeGrid::cube_id order): the owner table of the owner-computes
  /// spread (cube_spread_force_owned).
  std::vector<int> owner_table() const;

  const ThreadMesh& mesh() const { return mesh_; }
  DistributionPolicy policy() const { return policy_; }
  Index cubes_x() const { return ncx_; }
  Index cubes_y() const { return ncy_; }
  Index cubes_z() const { return ncz_; }

 private:
  /// Owner coordinate along one dimension: which of `threads` mesh slots
  /// owns index i of `count` cubes.
  int owner_1d(Index i, Index count, int threads) const;

  Index ncx_, ncy_, ncz_;
  ThreadMesh mesh_;
  DistributionPolicy policy_;
  Index block_factor_;
  std::vector<int> permutation_;  ///< empty = identity
};

/// The paper's int fiber2thread(fiber_i): block distribution of
/// `num_fibers` fibers over `num_threads` threads (cyclic optional).
int fiber2thread(Index fiber, Index num_fibers, int num_threads,
                 DistributionPolicy policy = DistributionPolicy::kBlock);

}  // namespace lbmib
