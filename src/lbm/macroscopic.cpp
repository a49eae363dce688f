#include "lbm/macroscopic.hpp"

#include <algorithm>

#include "lbm/d3q19.hpp"
#include "lbm/fluid_grid.hpp"
#include "lbm/simd.hpp"
#include "parallel/instrumentation.hpp"

namespace lbmib {

// Lane blocks of up to kLaneBlock nodes. Plane-outer accumulation: each
// direction plane is one contiguous streamed read, and per node the
// directions still sum in 0..kQ-1 order, so every fluid lane computes
// exactly the scalar body's sequence. Solid lanes write u = 0 and leave
// rho untouched (the scalar contract); their garbage moments — including
// a possible 1/0 = inf — are computed and discarded, which is cheaper
// than forfeiting the whole block to a scalar path (a walled z-row or
// wall cube always holds some).
void update_moments(const Real* const* planes, const std::uint8_t* solid,
                    const Real* fx, const Real* fy, const Real* fz,
                    Real* rho, Real* ux, Real* uy, Real* uz, Size n) {
  using namespace d3q19;
  for (Size b = 0; b < n; b += simd::kLaneBlock) {
    const Size len = std::min<Size>(simd::kLaneBlock, n - b);
    Real sum[simd::kLaneBlock];
    Real mx[simd::kLaneBlock];
    Real my[simd::kLaneBlock];
    Real mz[simd::kLaneBlock];
    for (Size l = 0; l < len; ++l) sum[l] = mx[l] = my[l] = mz[l] = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const Real* LBMIB_RESTRICT g = planes[i] + b;
      const Real cxr = cx[static_cast<Size>(i)];
      const Real cyr = cy[static_cast<Size>(i)];
      const Real czr = cz[static_cast<Size>(i)];
#pragma omp simd
      for (Size l = 0; l < len; ++l) {
        const Real gi = g[l];
        sum[l] += gi;
        mx[l] += gi * cxr;
        my[l] += gi * cyr;
        mz[l] += gi * czr;
      }
    }
    const Real* LBMIB_RESTRICT fxb = fx + b;
    const Real* LBMIB_RESTRICT fyb = fy + b;
    const Real* LBMIB_RESTRICT fzb = fz + b;
    Real* LBMIB_RESTRICT out_rho = rho + b;
    Real* LBMIB_RESTRICT out_ux = ux + b;
    Real* LBMIB_RESTRICT out_uy = uy + b;
    Real* LBMIB_RESTRICT out_uz = uz + b;
    const std::uint8_t* LBMIB_RESTRICT s = solid + b;
#pragma omp simd
    for (Size l = 0; l < len; ++l) {
      const Real inv_rho = Real{1} / sum[l];
      const bool fluid = s[l] == 0;
      if (fluid) out_rho[l] = sum[l];
      out_ux[l] = fluid ? (mx[l] + Real{0.5} * fxb[l]) * inv_rho : Real{0};
      out_uy[l] = fluid ? (my[l] + Real{0.5} * fyb[l]) * inv_rho : Real{0};
      out_uz[l] = fluid ? (mz[l] + Real{0.5} * fzb[l]) * inv_rho : Real{0};
    }
  }
}

void update_velocity_range(FluidGrid& grid, Size begin, Size end) {
  LBMIB_INSTRUMENT(
      inst::node_range(grid, begin, end, RaceField::kMacro,
                       RaceAccess::kWrite,
                       "update_velocity_range: macroscopic write");
      inst::node_range(grid, begin, end, RaceField::kDfNew,
                       RaceAccess::kRead,
                       "update_velocity_range: streamed df read");
      inst::node_range(grid, begin, end, RaceField::kForce,
                       RaceAccess::kRead,
                       "update_velocity_range: force read");)
  const Real* planes[kQ];
  for (int i = 0; i < kQ; ++i) planes[i] = grid.df_new_plane(i) + begin;
  update_moments(planes, grid.solid_data() + begin, grid.fx_data() + begin,
                 grid.fy_data() + begin, grid.fz_data() + begin,
                 grid.rho_data() + begin, grid.ux_data() + begin,
                 grid.uy_data() + begin, grid.uz_data() + begin,
                 end - begin);
}

}  // namespace lbmib
