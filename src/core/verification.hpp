// Cross-solver verification helpers.
//
// The paper verifies every parallel result against the sequential
// implementation ("all the numerical results have been verified to be
// correct by comparing the new result to that of the sequential
// implementation"). These utilities compute the discrepancy between two
// solvers' fluid and structure states.
#pragma once

#include <string>

#include "common/types.hpp"
#include "ib/fiber_sheet.hpp"  // for the Structure alias

namespace lbmib {

class Solver;
class FluidGrid;

/// Maximum absolute differences between two simulation states. A NaN
/// difference propagates: it makes its maximum, max_any() and within()'s
/// comparison NaN, so a NaN state is never within any tolerance.
struct StateDiff {
  Real max_df = 0.0;        ///< distribution functions
  Real max_velocity = 0.0;  ///< macroscopic velocity components
  Real max_density = 0.0;   ///< macroscopic density
  Real max_position = 0.0;  ///< fiber node position components
  Real max_force = 0.0;     ///< fiber elastic force components
  Real max_fluid_force = 0.0;  ///< fluid force field components

  /// Largest of all the component maxima.
  Real max_any() const;

  /// True if every component maximum is within `tol`.
  bool within(Real tol) const { return max_any() <= tol; }

  std::string to_string() const;
};

/// Compare full planar fluid states: distributions, moments and the
/// force field.
StateDiff compare_fluid(const FluidGrid& a, const FluidGrid& b);

/// Compare fiber sheets (positions and elastic forces).
StateDiff compare_sheets(const FiberSheet& a, const FiberSheet& b);

/// Compare full structures sheet by sheet.
StateDiff compare_structures(const Structure& a, const Structure& b);

/// Snapshot both solvers and compare fluid + structure.
StateDiff compare_solvers(const Solver& a, const Solver& b);

}  // namespace lbmib
