// Multiple-relaxation-time (MRT) collision operator for D3Q19.
//
// BGK relaxes every kinetic mode at the same rate 1/tau, which couples
// the shear viscosity to the (physically irrelevant) relaxation of the
// ghost modes and limits stability at low viscosity. MRT (d'Humieres et
// al. 2002) transforms the distributions to 19 moments, relaxes each
// moment class at its own rate, and transforms back:
//
//   g' = g - M^-1 S (M g - m_eq) + M^-1 (I - S/2) M F_bare
//
// with m_eq = M g_eq(rho, u) (the moments of the full quadratic
// equilibrium, so uniform rates S = (1/tau) I reduce MRT exactly to BGK
// with Guo forcing — the property the tests pin down). The moment basis
// is the standard orthogonal D3Q19 set (density, energy, energy square,
// momentum, heat flux, stresses, ghost modes); M's rows are mutually
// orthogonal, so M^-1 = M^T diag(1 / |row|^2).
//
// The shear modes relax at s_nu = 1/tau (fixing nu = cs^2 (tau - 1/2)
// like BGK); the remaining free rates default to the values tuned by
// d'Humieres et al. for stability.
#pragma once

#include <array>

#include "common/types.hpp"
#include "common/vec3.hpp"

namespace lbmib {

/// Per-moment-class relaxation rates. All rates must lie in (0, 2).
struct MrtRelaxation {
  Real s_e = 1.19;    ///< energy
  Real s_eps = 1.4;   ///< energy squared
  Real s_q = 1.2;     ///< heat flux
  Real s_nu = 1.0;    ///< shear stress — sets the viscosity
  Real s_pi = 1.4;    ///< stress ghost modes
  Real s_m = 1.98;    ///< third-order ghost modes

  /// Standard MRT rates with the viscosity of BGK at `tau`.
  static MrtRelaxation from_tau(Real tau);

  /// All rates equal to 1/tau: MRT degenerates exactly to BGK.
  static MrtRelaxation uniform(Real tau);

  /// The 19 diagonal entries of S in moment order.
  std::array<Real, kQ> diagonal() const;
};

/// The moment transform: constant matrices M and M^-1 plus the collision
/// routine. Construct once and reuse (construction builds and inverts M).
class MrtOperator {
 public:
  explicit MrtOperator(const MrtRelaxation& relaxation);

  /// Collide one node's 19 distribution values in place with the Guo
  /// forcing for `force`.
  void collide_node(Real* g, const Vec3& force) const;

  /// Moment-transform matrix entry M[row][col].
  Real m(int row, int col) const {
    return m_[static_cast<Size>(row)][static_cast<Size>(col)];
  }
  /// Inverse transform entry.
  Real m_inv(int row, int col) const {
    return m_inv_[static_cast<Size>(row)][static_cast<Size>(col)];
  }

  // Raw rows for the vectorized lane-block kernel (simd_kernels.cpp),
  // which hoists one matrix row per moment loop.
  const Real* m_row(int row) const {
    return m_[static_cast<Size>(row)].data();
  }
  const Real* m_inv_row(int row) const {
    return m_inv_[static_cast<Size>(row)].data();
  }
  const Real* s_diagonal_data() const { return s_.data(); }

  const MrtRelaxation& relaxation() const { return relaxation_; }

 private:
  MrtRelaxation relaxation_;
  std::array<Real, kQ> s_;                      // S diagonal
  std::array<std::array<Real, kQ>, kQ> m_;      // M
  std::array<std::array<Real, kQ>, kQ> m_inv_;  // M^-1
};

}  // namespace lbmib
