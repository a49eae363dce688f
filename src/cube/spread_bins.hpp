// Owner bins of the owner-computes spread (kernel 4).
//
// Owner-computes spreading lets each owner add only into its own cubes,
// but an owner that walks every fiber node rejects most of them. Binning
// sorts the nodes by owner once per step instead: binning thread t takes
// a fixed block of each sheet's fibers, [nf * t / P, nf * (t + 1) / P),
// and appends every node of it to the bin of each owner whose cubes the
// node's 4x4x4 support reaches. Owner o then spreads the bins addressed
// to it, sheet by sheet and, within a sheet, from t = 0 to P - 1. Each
// bin keeps its block's fiber -> node order and the blocks tile the sheet
// in order, so every fluid node still sums its contributions in the
// sequential sheet -> fiber -> node order: the counting-sort form of the
// key sort plus segmented reduce that Kassen, Shankar & Fogelson build IB
// spreading from, with the sum order kept.
//
// Every bin is sized at construction for the worst case (all of its
// block's nodes), so binning never allocates. The owner table also gives
// each owner its cube list: the cubes it resets, spreads into and sweeps.
//
// SpreadMarks records which cubes an owner's spread wrote: the cubes
// whose force is more than the body force, and the only cubes whose
// velocity kernel 8 reads in the step.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/types.hpp"
#include "ib/fiber_sheet.hpp"

namespace lbmib {

class CubeGrid;

class SpreadBins {
 public:
  /// Bins of `threads` binning threads over `structure`'s shape, for the
  /// owner table `cube_owner` (cube id -> owner in [0, owners), as
  /// CubeDistribution::owner_table builds it).
  SpreadBins(const Structure& structure, std::vector<int> cube_owner,
             int owners, int threads);

  int owners() const { return owners_; }
  int threads() const { return threads_; }
  std::span<const int> cube_owner() const { return cube_owner_; }

  /// The cubes `owner` owns, ascending.
  std::span<const Size> owned_cubes(int owner) const {
    return owned_cubes_[static_cast<Size>(owner)];
  }

  /// Fibers [first, second) of a sheet of `num_fibers` fibers that
  /// binning thread `t` of `threads` bins.
  static std::pair<Index, Index> fiber_block(Index num_fibers, int t,
                                             int threads);

  /// Bin thread `t`'s fiber block of every sheet by the owners its
  /// nodes' supports reach in `grid`. Threads bin disjoint blocks into
  /// disjoint bins, so all of them may bin at once; the bins must be
  /// published (a barrier) before any owner spreads them.
  void bin(const Structure& structure, const CubeGrid& grid, int t);

  /// Node ids of `sheet` that thread `t` binned for `owner`, ascending.
  std::span<const std::uint32_t> nodes(Size sheet, int t, int owner) const;

  /// Nodes binned for `owner` over every sheet and thread.
  Size bin_size(int owner) const;

 private:
  struct Block {
    Size first_node;  // sheet-local id of the block's first node
    Size nodes;       // block size: the capacity of each of its bins
    Size offset;      // of its `owners` bins in ids_
  };
  Size slot(int t, Size sheet) const {
    return static_cast<Size>(t) * num_sheets_ + sheet;
  }

  std::vector<int> cube_owner_;
  std::vector<std::vector<Size>> owned_cubes_;  // per owner, ascending
  int owners_;
  int threads_;
  Size num_sheets_;
  std::vector<Block> blocks_;          // per (thread, sheet)
  AlignedBuffer<std::uint32_t> ids_;   // owners_ bins per block
  /// Bin fill counts, one cache-line-padded row of owners_ per (thread,
  /// sheet), so binning threads never share a line.
  AlignedBuffer<std::uint32_t> counts_;
  Size count_stride_;
};

/// One mark per cube, written only by the cube's owner: set by its
/// spread (cube_spread_force_owned) on every cube the spread adds into,
/// and cleared by its next spread when that resets the cube. Two readers
/// use them: kernel 4's reset, since an unmarked cube holds exactly the
/// body force, and the fused cube step's kernel 7, since kernel 8 reads
/// only the velocity of marked cubes (core/cube_solver.hpp). Each
/// owner's marks lie in the order of its cube list on cache lines no
/// other owner's marks share. A mark is 32 bits, not a byte: a char
/// store may alias any object, which would make the spread reload its
/// operands after every mark.
class SpreadMarks {
 public:
  /// Unset marks for the owners and cube lists of `bins`.
  explicit SpreadMarks(const SpreadBins& bins);

  bool marked(Size cube) const { return marks_[index_[cube]] != 0; }

  /// Mark `cube`; stores only if the mark is unset, so a spread writes
  /// each mark at most once.
  void mark(Size cube) {
    std::uint32_t& m = marks_[index_[cube]];
    if (m == 0) m = 1;
  }

  /// `owner`'s marks, one per cube of SpreadBins::owned_cubes(owner) in
  /// that order.
  std::span<std::uint32_t> owned(int owner) {
    return {marks_.data() + first_[static_cast<Size>(owner)],
            count_[static_cast<Size>(owner)]};
  }

  /// Mark every cube: the next spread resets every force (after a state
  /// restore, whose force field may hold anything).
  void mark_all();

 private:
  std::vector<Size> index_;  // cube id -> its mark in marks_
  std::vector<Size> first_;  // per owner: its first mark, line-aligned
  std::vector<Size> count_;  // per owner: its cube count
  AlignedBuffer<std::uint32_t> marks_;
};

}  // namespace lbmib
