#include "lbm/mrt.hpp"

#include "common/error.hpp"
#include "lbm/d3q19.hpp"

namespace lbmib {

namespace {

/// The 19 moment definitions as polynomials in the discrete velocity.
/// Standard d'Humieres D3Q19 basis (rows are mutually orthogonal).
Real moment_row(int row, int i) {
  using namespace d3q19;
  const Real x = cx[static_cast<Size>(i)];
  const Real y = cy[static_cast<Size>(i)];
  const Real z = cz[static_cast<Size>(i)];
  const Real c2 = x * x + y * y + z * z;
  switch (row) {
    case 0:
      return 1;  // rho
    case 1:
      return 19 * c2 - 30;  // energy e
    case 2:
      return (21 * c2 * c2 - 53 * c2 + 24) / 2;  // energy^2 eps
    case 3:
      return x;  // j_x
    case 4:
      return (5 * c2 - 9) * x;  // q_x
    case 5:
      return y;  // j_y
    case 6:
      return (5 * c2 - 9) * y;  // q_y
    case 7:
      return z;  // j_z
    case 8:
      return (5 * c2 - 9) * z;  // q_z
    case 9:
      return 3 * x * x - c2;  // 3 p_xx
    case 10:
      return (3 * c2 - 5) * (3 * x * x - c2);  // 3 pi_xx
    case 11:
      return y * y - z * z;  // p_ww
    case 12:
      return (3 * c2 - 5) * (y * y - z * z);  // pi_ww
    case 13:
      return x * y;  // p_xy
    case 14:
      return y * z;  // p_yz
    case 15:
      return x * z;  // p_xz
    case 16:
      return (y * y - z * z) * x;  // m_x
    case 17:
      return (z * z - x * x) * y;  // m_y
    case 18:
      return (x * x - y * y) * z;  // m_z
  }
  return 0;
}

}  // namespace

MrtRelaxation MrtRelaxation::from_tau(Real tau) {
  MrtRelaxation r;
  r.s_nu = Real{1} / tau;
  return r;
}

MrtRelaxation MrtRelaxation::uniform(Real tau) {
  MrtRelaxation r;
  const Real s = Real{1} / tau;
  r.s_e = r.s_eps = r.s_q = r.s_nu = r.s_pi = r.s_m = s;
  return r;
}

std::array<Real, kQ> MrtRelaxation::diagonal() const {
  // Conserved moments (rho, j) may relax at any rate — their
  // non-equilibrium part is identically zero; use s_nu for definiteness.
  return {s_nu, s_e,  s_eps, s_nu, s_q,  s_nu, s_q,  s_nu, s_q, s_nu,
          s_pi, s_nu, s_pi,  s_nu, s_nu, s_nu, s_m,  s_m,  s_m};
}

MrtOperator::MrtOperator(const MrtRelaxation& relaxation)
    : relaxation_(relaxation), s_(relaxation.diagonal()) {
  for (Real s : s_) {
    require(s > Real{0} && s < Real{2},
            "MRT relaxation rates must lie in (0, 2)");
  }
  // Build M and verify the rows are mutually orthogonal, then invert via
  // M^-1 = M^T diag(1/|row|^2).
  std::array<Real, kQ> row_norm2{};
  for (int r = 0; r < kQ; ++r) {
    for (int i = 0; i < kQ; ++i) {
      m_[static_cast<Size>(r)][static_cast<Size>(i)] = moment_row(r, i);
      row_norm2[static_cast<Size>(r)] +=
          m_[static_cast<Size>(r)][static_cast<Size>(i)] *
          m_[static_cast<Size>(r)][static_cast<Size>(i)];
    }
  }
  for (int i = 0; i < kQ; ++i) {
    for (int r = 0; r < kQ; ++r) {
      m_inv_[static_cast<Size>(i)][static_cast<Size>(r)] =
          m_[static_cast<Size>(r)][static_cast<Size>(i)] /
          row_norm2[static_cast<Size>(r)];
    }
  }
}

void MrtOperator::collide_node(Real* g, const Vec3& force) const {
  using namespace d3q19;

  // Macroscopic fields with the half-force shift.
  Real rho = 0.0;
  Vec3 mom{};
  for (int i = 0; i < kQ; ++i) {
    rho += g[i];
    mom.x += g[i] * cx[static_cast<Size>(i)];
    mom.y += g[i] * cy[static_cast<Size>(i)];
    mom.z += g[i] * cz[static_cast<Size>(i)];
  }
  const Vec3 u = (mom + Real{0.5} * force) / rho;

  // Non-equilibrium populations and bare Guo forcing populations.
  Real gneq[kQ];
  Real fbare[kQ];
  for (int i = 0; i < kQ; ++i) {
    gneq[i] = g[i] - equilibrium(i, rho, u);
    const Vec3 ci = c(i);
    const Real cu = dot(ci, u);
    const Vec3 term = inv_cs2 * (ci - u) + (inv_cs4 * cu) * ci;
    fbare[i] = w[static_cast<Size>(i)] * dot(term, force);
  }

  // Moment space: relax each non-equilibrium moment and scale the forcing
  // moment by (1 - s/2); transform back in one fused pass.
  Real update_m[kQ];
  for (int r = 0; r < kQ; ++r) {
    Real mneq = 0.0, mforce = 0.0;
    for (int i = 0; i < kQ; ++i) {
      mneq += m_[static_cast<Size>(r)][static_cast<Size>(i)] * gneq[i];
      mforce += m_[static_cast<Size>(r)][static_cast<Size>(i)] * fbare[i];
    }
    update_m[r] = -s_[static_cast<Size>(r)] * mneq +
                  (Real{1} - Real{0.5} * s_[static_cast<Size>(r)]) * mforce;
  }
  for (int i = 0; i < kQ; ++i) {
    Real delta = 0.0;
    for (int r = 0; r < kQ; ++r) {
      delta += m_inv_[static_cast<Size>(i)][static_cast<Size>(r)] *
               update_m[r];
    }
    g[i] += delta;
  }
}

}  // namespace lbmib
