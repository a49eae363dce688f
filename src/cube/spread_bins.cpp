#include "cube/spread_bins.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "cube/cube_grid.hpp"
#include "ib/spreading.hpp"
#include "lbm/fluid_grid.hpp"

namespace lbmib {

SpreadBins::SpreadBins(const Structure& structure,
                       std::vector<int> cube_owner, int owners, int threads)
    : cube_owner_(std::move(cube_owner)),
      owners_(owners),
      threads_(threads),
      num_sheets_(structure.size()) {
  require(owners >= 1 && threads >= 1,
          "spread bins need at least one owner and one thread");
  owned_cubes_.resize(static_cast<Size>(owners));
  for (Size cube = 0; cube < cube_owner_.size(); ++cube) {
    const int o = cube_owner_[cube];
    require(o >= 0 && o < owners, "cube owner out of range");
    owned_cubes_[static_cast<Size>(o)].push_back(cube);
  }
  blocks_.resize(static_cast<Size>(threads) * num_sheets_);
  Size total = 0;
  for (int t = 0; t < threads; ++t) {
    for (Size s = 0; s < num_sheets_; ++s) {
      const FiberSheet& sheet = structure[s];
      require(sheet.num_nodes() <= std::numeric_limits<std::uint32_t>::max(),
              "spread bins hold sheet node ids in 32 bits");
      const auto [first, last] = fiber_block(sheet.num_fibers(), t, threads);
      const Size per_fiber = static_cast<Size>(sheet.nodes_per_fiber());
      Block& b = blocks_[slot(t, s)];
      b.first_node = static_cast<Size>(first) * per_fiber;
      b.nodes = static_cast<Size>(last - first) * per_fiber;
      b.offset = total;
      total += b.nodes * static_cast<Size>(owners);
    }
  }
  ids_.reset_uninitialized(total);
  // 16 counts fill one 64-byte line.
  count_stride_ = (static_cast<Size>(owners) + 15) / 16 * 16;
  counts_.reset(blocks_.size() * count_stride_);
}

std::pair<Index, Index> SpreadBins::fiber_block(Index num_fibers, int t,
                                                int threads) {
  return {num_fibers * t / threads, num_fibers * (t + 1) / threads};
}

void SpreadBins::bin(const Structure& structure, const CubeGrid& grid,
                     int t) {
  const Index extents[3] = {grid.nx(), grid.ny(), grid.nz()};
  for (Size s = 0; s < num_sheets_; ++s) {
    const FiberSheet& sheet = structure[s];
    const Block& b = blocks_[slot(t, s)];
    std::uint32_t* count = counts_.data() + slot(t, s) * count_stride_;
    std::fill(count, count + owners_, 0u);
    std::uint32_t* ids = ids_.data() + b.offset;
    for (Size node = b.first_node; node < b.first_node + b.nodes; ++node) {
      // The distinct cubes each axis's 4 lattice indices fall in (up to
      // 4 at cube size 1, and repeats once a support wraps a short axis),
      // with bases from influence_base so the walk agrees with
      // influence_domain on NaN and clamped coordinates.
      const Vec3& pos = sheet.position(node);
      const Real coords[3] = {pos.x, pos.y, pos.z};
      Index cubes[3][4];
      int distinct[3];
      for (int axis = 0; axis < 3; ++axis) {
        const Index base = influence_base(coords[axis]);
        distinct[axis] = 0;
        for (Index a = 0; a < 4; ++a) {
          const Index c =
              grid.split(axis, FluidGrid::wrap(base + a, extents[axis])).cube;
          Index* seen = cubes[axis];
          if (std::find(seen, seen + distinct[axis], c) ==
              seen + distinct[axis]) {
            seen[distinct[axis]++] = c;
          }
        }
      }
      const auto id = static_cast<std::uint32_t>(node);
      for (int i = 0; i < distinct[0]; ++i) {
        for (int j = 0; j < distinct[1]; ++j) {
          for (int l = 0; l < distinct[2]; ++l) {
            const int o = cube_owner_[grid.cube_id(cubes[0][i], cubes[1][j],
                                                   cubes[2][l])];
            // Nodes arrive in ascending order, so a node already in this
            // bin is its last entry.
            std::uint32_t* bin = ids + static_cast<Size>(o) * b.nodes;
            std::uint32_t& n = count[o];
            if (n == 0 || bin[n - 1] != id) bin[n++] = id;
          }
        }
      }
    }
  }
}

std::span<const std::uint32_t> SpreadBins::nodes(Size sheet, int t,
                                                 int owner) const {
  const Block& b = blocks_[slot(t, sheet)];
  return {ids_.data() + b.offset + static_cast<Size>(owner) * b.nodes,
          counts_[slot(t, sheet) * count_stride_ + static_cast<Size>(owner)]};
}

Size SpreadBins::bin_size(int owner) const {
  Size total = 0;
  for (int t = 0; t < threads_; ++t) {
    for (Size s = 0; s < num_sheets_; ++s) total += nodes(s, t, owner).size();
  }
  return total;
}

}  // namespace lbmib
