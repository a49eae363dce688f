// Lane-block collision kernels for the fused collide-stream hot path.
//
// Each function processes `n` contiguous lattice nodes (one z-run of the
// planar sweep, or a whole cube into a scratch block) in blocks of
// simd::kLaneBlock lanes. The 19-direction gather/scatter runs
// direction-outer so every inner loop is a unit-stride lane loop over
// contiguous doubles — the shape `#pragma omp simd` vectorizes without
// gathers.
//
// FP contract: every lane performs *exactly* the operation sequence of the
// scalar kernels (collide_node_array / MrtOperator::collide_node), and no
// reduction ever crosses lanes, so the only possible divergence from the
// scalar path is the compiler making different fma-contraction choices for
// identical expression trees. tests/lbm/test_simd_kernels.cpp and the
// vectorized leg of test_fused_equivalence.cpp pin down what the toolchain
// actually delivers.
//
// Callers guarantee: no solid node among any stream destination
// (dst[dir] already includes the per-direction stream offset), and no
// moving-lid plane in reach. A solid source lane collides garbage
// (possibly 0/0) that the caller must discard, as the cube sweep does by
// colliding into a scratch block. dst[i] == src[i] for all i is allowed
// (pure in-place collide).
#pragma once

#include "common/types.hpp"

namespace lbmib {

class MrtOperator;

/// BGK + Guo forcing over `n` contiguous nodes: read the 19 populations
/// from src[dir][0..n), collide, write to dst[dir][0..n). fx/fy/fz are the
/// force components of the same node run.
void fused_block_bgk(const Real* const* src, Real* const* dst,
                     const Real* fx, const Real* fy, const Real* fz, Size n,
                     Real tau);

/// MRT (d'Humieres) variant of fused_block_bgk.
void fused_block_mrt(const Real* const* src, Real* const* dst,
                     const Real* fx, const Real* fy, const Real* fz, Size n,
                     const MrtOperator& op);

/// The lane-block seam of collide_node (collision.hpp): fused_block_mrt
/// when `mrt` is non-null, fused_block_bgk at `tau` otherwise.
void fused_block(const Real* const* src, Real* const* dst, const Real* fx,
                 const Real* fy, const Real* fz, Size n, Real tau,
                 const MrtOperator* mrt);

}  // namespace lbmib
