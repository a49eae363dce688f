#include "core/solver.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/cube_solver.hpp"
#include "core/distributed2d_solver.hpp"
#include "core/openmp_solver.hpp"
#include "core/sequential_solver.hpp"
#include "parallel/cancel.hpp"

namespace lbmib {

Solver::Solver(const SimulationParams& params) : params_(params) {
  params_.validate();
  thread_profiles_.resize(static_cast<Size>(params_.num_threads));
  structure_ = make_structure(params_);
  if (params_.collision == CollisionModel::kMRT) {
    mrt_ = std::make_unique<MrtOperator>(
        MrtRelaxation::from_tau(params_.tau));
  }
}

void Solver::restore_state(const FluidGrid& fluid,
                           const Structure& structure, Index step) {
  require(fluid.nx() == params_.nx && fluid.ny() == params_.ny &&
              fluid.nz() == params_.nz,
          "restore_state fluid dimensions do not match");
  require(structure.size() == structure_.size(),
          "restore_state sheet count does not match");
  for (Size s = 0; s < structure.size(); ++s) {
    require(structure[s].num_fibers() == structure_[s].num_fibers() &&
                structure[s].nodes_per_fiber() ==
                    structure_[s].nodes_per_fiber(),
            "restore_state sheet dimensions do not match");
  }
  structure_ = structure;
  restore_fluid(fluid);
  steps_completed_ = step;
}

double Solver::update_velocity_nodes(Phase /*row*/) const {
  return static_cast<double>(params_.nx) * static_cast<double>(params_.ny) *
         static_cast<double>(params_.nz) *
         static_cast<double>(steps_completed_);
}

void Solver::run(Index num_steps, const StepObserver& observer,
                 Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  // Enroll the stepping thread on the ProgressBoard for the duration of
  // the run. This is the liveness coverage for the solvers that step on
  // the calling thread (sequential, OpenMP); team-based solvers
  // override run() and their ThreadTeam enrolls every worker instead.
  HeartbeatScope heartbeat("solver:run");
  for (Index s = 0; s < num_steps; ++s) {
    step();
    if (observer && (steps_completed_ % observer_interval == 0)) {
      observer(*this, steps_completed_ - 1);
    }
  }
}

void Solver::merge_thread_profiles() {
  for (int r = 0; r < kNumPhases; ++r) {
    const Phase phase = static_cast<Phase>(r);
    double slowest = 0.0;
    for (const KernelProfiler& p : thread_profiles_) {
      slowest = std::max(slowest, p.seconds(phase));
    }
    const double fresh = slowest - merged_.seconds(phase);
    profiler_.add(phase, fresh);
    merged_.add(phase, fresh);
  }
}

std::string_view solver_kind_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSequential:
      return "sequential";
    case SolverKind::kOpenMP:
      return "openmp";
    case SolverKind::kCube:
      return "cube";
    case SolverKind::kDataflow:
      return "dataflow";
    case SolverKind::kDistributed:
      return "distributed";
    case SolverKind::kDistributed2D:
      return "distributed2d";
  }
  return "?";
}

std::unique_ptr<Solver> make_solver(SolverKind kind,
                                    const SimulationParams& params) {
  switch (kind) {
    case SolverKind::kSequential:
      return std::make_unique<SequentialSolver>(params);
    case SolverKind::kOpenMP:
      return std::make_unique<OpenMPSolver>(params);
    case SolverKind::kCube:
      return std::make_unique<CubeSolver>(params);
    case SolverKind::kDataflow:
      return std::make_unique<CubeSolver>(params,
                                          CubeSolver::Schedule::kDataflow);
    case SolverKind::kDistributed:
      return std::make_unique<Distributed2DSolver>(
          params, Distributed2DSolver::Mesh::kSlabs);
    case SolverKind::kDistributed2D:
      return std::make_unique<Distributed2DSolver>(
          params, Distributed2DSolver::Mesh::kTiles);
  }
  throw Error("unknown solver kind");
}

}  // namespace lbmib
