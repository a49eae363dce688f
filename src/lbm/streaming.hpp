// Kernel 6: stream_fluid_velocity_distribution.
//
// Push streaming: every non-solid node copies its post-collision
// distribution along each of the 18 moving directions into the `df_new`
// buffer of the periodic neighbour. If the neighbour is a solid wall node,
// the value bounces back into the node's own opposite direction (half-way
// bounce-back), realizing no-slip walls.
//
// Each (direction, destination) pair has exactly one source node, so
// concurrent calls on disjoint source ranges write disjoint df_new slots:
// the kernel is race-free under both the OpenMP slab and the cube
// partitioning without any locking.
#pragma once

#include "common/types.hpp"

namespace lbmib {

class FluidGrid;

/// Stream every non-solid node with x in [x_begin, x_end).
void stream_x_slab(FluidGrid& grid, Index x_begin, Index x_end);

/// Stream every non-solid node with x in [x_begin, x_end) and y in
/// [y_begin, y_end). The distributed solver streams its real tile this
/// way: on the ghosted local grid those nodes are interior in x and y,
/// so every x/y push lands in the tile or its ghost ring and only z
/// wraps.
void stream_x_slab(FluidGrid& grid, Index x_begin, Index x_end,
                   Index y_begin, Index y_end);

/// Kernel 9: copy the new-distribution buffer back into the present buffer
/// for every node in [begin, end) (all 19 directions).
void copy_distributions_range(FluidGrid& grid, Size begin, Size end);

}  // namespace lbmib
