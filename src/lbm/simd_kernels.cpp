#include "lbm/simd_kernels.hpp"

#include "lbm/d3q19.hpp"
#include "lbm/mrt.hpp"
#include "lbm/simd.hpp"

namespace lbmib {

namespace {

using simd::kLaneBlock;

/// Per-block macroscopic state: density and half-force-shifted velocity.
/// Mirrors the scalar sequence exactly: rho and momentum accumulate over
/// the directions in lattice order, then u = (mom + 0.5 F) / rho with the
/// reciprocal-multiply division of Vec3::operator/.
struct MacroBlock {
  alignas(kCacheLineBytes) Real rho[kLaneBlock];
  alignas(kCacheLineBytes) Real ux[kLaneBlock];
  alignas(kCacheLineBytes) Real uy[kLaneBlock];
  alignas(kCacheLineBytes) Real uz[kLaneBlock];
};

void gather_macroscopic(const Real* const* src, Size base, Size len,
                        const Real* LBMIB_RESTRICT fx,
                        const Real* LBMIB_RESTRICT fy,
                        const Real* LBMIB_RESTRICT fz, MacroBlock& mb) {
  using namespace d3q19;
  Real* LBMIB_RESTRICT rho = simd::assume_cacheline_aligned(mb.rho);
  Real* LBMIB_RESTRICT ux = simd::assume_cacheline_aligned(mb.ux);
  Real* LBMIB_RESTRICT uy = simd::assume_cacheline_aligned(mb.uy);
  Real* LBMIB_RESTRICT uz = simd::assume_cacheline_aligned(mb.uz);
#pragma omp simd
  for (Size l = 0; l < len; ++l) {
    rho[l] = 0.0;
    ux[l] = 0.0;
    uy[l] = 0.0;
    uz[l] = 0.0;
  }
  for (int i = 0; i < kQ; ++i) {
    const Real* LBMIB_RESTRICT gi = src[i] + base;
    const Real cxi = static_cast<Real>(cx[static_cast<Size>(i)]);
    const Real cyi = static_cast<Real>(cy[static_cast<Size>(i)]);
    const Real czi = static_cast<Real>(cz[static_cast<Size>(i)]);
#pragma omp simd
    for (Size l = 0; l < len; ++l) {
      const Real g = gi[l];
      rho[l] += g;
      ux[l] += g * cxi;  // momentum accumulators until the divide below
      uy[l] += g * cyi;
      uz[l] += g * czi;
    }
  }
#pragma omp simd
  for (Size l = 0; l < len; ++l) {
    const Real inv_rho = Real{1} / rho[l];
    ux[l] = (ux[l] + fx[base + l] * Real{0.5}) * inv_rho;
    uy[l] = (uy[l] + fy[base + l] * Real{0.5}) * inv_rho;
    uz[l] = (uz[l] + fz[base + l] * Real{0.5}) * inv_rho;
  }
}

}  // namespace

void fused_block_bgk(const Real* const* src, Real* const* dst,
                     const Real* fx, const Real* fy, const Real* fz, Size n,
                     Real tau) {
  using namespace d3q19;
  const Real inv_tau = Real{1} / tau;
  const Real half_tau = Real{1} - Real{0.5} / tau;
  MacroBlock mb;
  for (Size block = 0; block < n; block += kLaneBlock) {
    const Size len = n - block < kLaneBlock ? n - block : kLaneBlock;
    gather_macroscopic(src, block, len, fx, fy, fz, mb);
    const Real* LBMIB_RESTRICT ux = mb.ux;
    const Real* LBMIB_RESTRICT uy = mb.uy;
    const Real* LBMIB_RESTRICT uz = mb.uz;
    const Real* LBMIB_RESTRICT rho = mb.rho;
    const Real* LBMIB_RESTRICT fxp = fx + block;
    const Real* LBMIB_RESTRICT fyp = fy + block;
    const Real* LBMIB_RESTRICT fzp = fz + block;
    for (int i = 0; i < kQ; ++i) {
      const Real* LBMIB_RESTRICT gi = src[i] + block;
      Real* LBMIB_RESTRICT oi = dst[i] + block;
      const Real cxi = static_cast<Real>(cx[static_cast<Size>(i)]);
      const Real cyi = static_cast<Real>(cy[static_cast<Size>(i)]);
      const Real czi = static_cast<Real>(cz[static_cast<Size>(i)]);
      const Real wi = w[static_cast<Size>(i)];
      const Real pref = half_tau * wi;
#pragma omp simd
      for (Size l = 0; l < len; ++l) {
        // equilibrium(i, rho, u), same association as d3q19.hpp
        const Real cu = cxi * ux[l] + cyi * uy[l] + czi * uz[l];
        const Real u2 = ux[l] * ux[l] + uy[l] * uy[l] + uz[l] * uz[l];
        const Real eq =
            wi * rho[l] *
            (Real{1} + Real{3} * cu + Real{4.5} * cu * cu - Real{1.5} * u2);
        // guo_forcing(i, tau, u, F), term = 3 (c - u) + 9 (c.u) c
        const Real tx = (cxi - ux[l]) * Real{3} + cxi * (Real{9} * cu);
        const Real ty = (cyi - uy[l]) * Real{3} + cyi * (Real{9} * cu);
        const Real tz = (czi - uz[l]) * Real{3} + czi * (Real{9} * cu);
        const Real guo = pref * (tx * fxp[l] + ty * fyp[l] + tz * fzp[l]);
        const Real g = gi[l];
        oi[l] = g + (-inv_tau * (g - eq) + guo);
      }
    }
  }
}

void fused_block_mrt(const Real* const* src, Real* const* dst,
                     const Real* fx, const Real* fy, const Real* fz, Size n,
                     const MrtOperator& op) {
  using namespace d3q19;
  const Real* s = op.s_diagonal_data();
  MacroBlock mb;
  // Per-direction non-equilibrium / bare-forcing populations and the
  // relaxed moment updates for one lane block (~15 KiB of stack).
  alignas(kCacheLineBytes) Real gneq[kQ][kLaneBlock];
  alignas(kCacheLineBytes) Real fbare[kQ][kLaneBlock];
  alignas(kCacheLineBytes) Real upd[kQ][kLaneBlock];
  alignas(kCacheLineBytes) Real mneq[kLaneBlock];
  alignas(kCacheLineBytes) Real mforce[kLaneBlock];
  for (Size block = 0; block < n; block += kLaneBlock) {
    const Size len = n - block < kLaneBlock ? n - block : kLaneBlock;
    gather_macroscopic(src, block, len, fx, fy, fz, mb);
    const Real* LBMIB_RESTRICT ux = mb.ux;
    const Real* LBMIB_RESTRICT uy = mb.uy;
    const Real* LBMIB_RESTRICT uz = mb.uz;
    const Real* LBMIB_RESTRICT rho = mb.rho;
    const Real* LBMIB_RESTRICT fxp = fx + block;
    const Real* LBMIB_RESTRICT fyp = fy + block;
    const Real* LBMIB_RESTRICT fzp = fz + block;
    for (int i = 0; i < kQ; ++i) {
      const Real* LBMIB_RESTRICT gi = src[i] + block;
      Real* LBMIB_RESTRICT gn = gneq[i];
      Real* LBMIB_RESTRICT fb = fbare[i];
      const Real cxi = static_cast<Real>(cx[static_cast<Size>(i)]);
      const Real cyi = static_cast<Real>(cy[static_cast<Size>(i)]);
      const Real czi = static_cast<Real>(cz[static_cast<Size>(i)]);
      const Real wi = w[static_cast<Size>(i)];
#pragma omp simd
      for (Size l = 0; l < len; ++l) {
        const Real cu = cxi * ux[l] + cyi * uy[l] + czi * uz[l];
        const Real u2 = ux[l] * ux[l] + uy[l] * uy[l] + uz[l] * uz[l];
        const Real eq =
            wi * rho[l] *
            (Real{1} + Real{3} * cu + Real{4.5} * cu * cu - Real{1.5} * u2);
        gn[l] = gi[l] - eq;
        const Real tx = (cxi - ux[l]) * Real{3} + cxi * (Real{9} * cu);
        const Real ty = (cyi - uy[l]) * Real{3} + cyi * (Real{9} * cu);
        const Real tz = (czi - uz[l]) * Real{3} + czi * (Real{9} * cu);
        fb[l] = wi * (tx * fxp[l] + ty * fyp[l] + tz * fzp[l]);
      }
    }
    for (int r = 0; r < kQ; ++r) {
      const Real* LBMIB_RESTRICT mrow = op.m_row(r);
#pragma omp simd
      for (Size l = 0; l < len; ++l) {
        mneq[l] = 0.0;
        mforce[l] = 0.0;
      }
      for (int i = 0; i < kQ; ++i) {
        const Real mri = mrow[i];
        const Real* LBMIB_RESTRICT gn = gneq[i];
        const Real* LBMIB_RESTRICT fb = fbare[i];
#pragma omp simd
        for (Size l = 0; l < len; ++l) {
          mneq[l] += mri * gn[l];
          mforce[l] += mri * fb[l];
        }
      }
      const Real sr = s[r];
      Real* LBMIB_RESTRICT ur = upd[r];
#pragma omp simd
      for (Size l = 0; l < len; ++l) {
        ur[l] = -sr * mneq[l] + (Real{1} - Real{0.5} * sr) * mforce[l];
      }
    }
    for (int i = 0; i < kQ; ++i) {
      const Real* LBMIB_RESTRICT minv = op.m_inv_row(i);
      const Real* LBMIB_RESTRICT gi = src[i] + block;
      Real* LBMIB_RESTRICT oi = dst[i] + block;
      // Reuse mneq as the back-transform accumulator.
      Real* LBMIB_RESTRICT delta = mneq;
#pragma omp simd
      for (Size l = 0; l < len; ++l) delta[l] = 0.0;
      for (int r = 0; r < kQ; ++r) {
        const Real mir = minv[r];
        const Real* LBMIB_RESTRICT ur = upd[r];
#pragma omp simd
        for (Size l = 0; l < len; ++l) delta[l] += mir * ur[l];
      }
#pragma omp simd
      for (Size l = 0; l < len; ++l) oi[l] = gi[l] + delta[l];
    }
  }
}

void fused_block(const Real* const* src, Real* const* dst, const Real* fx,
                 const Real* fy, const Real* fz, Size n, Real tau,
                 const MrtOperator* mrt) {
  if (mrt != nullptr) {
    fused_block_mrt(src, dst, fx, fy, fz, n, *mrt);
  } else {
    fused_block_bgk(src, dst, fx, fy, fz, n, tau);
  }
}

}  // namespace lbmib
