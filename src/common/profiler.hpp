// Per-kernel wall-time profiler and the phase table.
//
// Substitutes for gprof in the paper's Table I: every solver times each
// phase of its step into a KernelProfiler, and report() prints the nine
// kernels ranked by share of total time, like the paper's table.
//
// The phase table is the one list of instrumented phases: each row is a
// name plus the Table-I kernel it bills, and the name is at once the
// span name, the perf-counter key and the roofline row name.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lbmib {

/// Identifiers for the nine LBM-IB kernels of Algorithm 1, in paper order.
enum class Kernel : int {
  kBendingForce = 0,       // 1) compute_bending_force_in_fibers
  kStretchingForce = 1,    // 2) compute_stretching_force_in_fibers
  kElasticForce = 2,       // 3) compute_elastic_force_in_fibers
  kSpreadForce = 3,        // 4) spread_force_from_fibers_to_fluid
  kCollision = 4,          // 5) compute_fluid_collision
  kStreaming = 5,          // 6) stream_fluid_velocity_distribution
  kUpdateVelocity = 6,     // 7) update_fluid_velocity
  kMoveFibers = 7,         // 8) move_fibers
  kCopyDistribution = 8,   // 9) copy_fluid_velocity_distribution
};

inline constexpr int kNumKernels = 9;

/// Rows of the phase table. The first kNumKernels rows are the paper's
/// kernels in Kernel order; the rest are the phases the fused, dataflow
/// and distributed pipelines run instead, each billing one kernel.
enum class Phase : int {
  kBending = 0,
  kStretching,
  kElastic,
  kSpread,
  kCollide,
  kStream,
  kUpdateVelocity,
  kMoveFibers,
  kCopyDf,
  kCollideStream,      ///< fused kernels 5+6
  kSwapDf,             ///< kernel 9 as an O(1) buffer swap
  kFiberForcesSpread,  ///< distributed kernels 1-4 on the replica
  kFiberForcesFused,   ///< dataflow kernels 1-3 per fiber + owned spread
  kTaskCollideStream,  ///< dataflow COLLIDE+STREAM task
  kTaskUpdateCopy,     ///< dataflow UPDATE+COPY task
  kExchangeHalos,      ///< distributed 8-message halo exchange
};

inline constexpr int kNumPhases = 16;

/// Trace category of a phase's span.
enum class PhaseCat : std::uint8_t { kKernel, kTask, kHalo };

struct PhaseRow {
  const char* name;  ///< span, counter and roofline row name
  Kernel bills;      ///< the Table-I kernel its time is billed to
  PhaseCat cat;
};

inline constexpr std::array<PhaseRow, kNumPhases> kPhaseTable = {{
    {"bending", Kernel::kBendingForce, PhaseCat::kKernel},
    {"stretching", Kernel::kStretchingForce, PhaseCat::kKernel},
    {"elastic", Kernel::kElasticForce, PhaseCat::kKernel},
    {"spread", Kernel::kSpreadForce, PhaseCat::kKernel},
    {"collide", Kernel::kCollision, PhaseCat::kKernel},
    {"stream", Kernel::kStreaming, PhaseCat::kKernel},
    {"update_velocity", Kernel::kUpdateVelocity, PhaseCat::kKernel},
    {"move_fibers", Kernel::kMoveFibers, PhaseCat::kKernel},
    {"copy_df", Kernel::kCopyDistribution, PhaseCat::kKernel},
    {"collide_stream", Kernel::kCollision, PhaseCat::kKernel},
    {"swap_df", Kernel::kCopyDistribution, PhaseCat::kKernel},
    {"fiber_forces_spread", Kernel::kSpreadForce, PhaseCat::kKernel},
    {"fiber_forces_fused", Kernel::kSpreadForce, PhaseCat::kKernel},
    {"task.collide_stream", Kernel::kCollision, PhaseCat::kTask},
    {"task.update_copy", Kernel::kCollision, PhaseCat::kTask},
    {"exchange_halos", Kernel::kStreaming, PhaseCat::kHalo},
}};

constexpr const PhaseRow& phase_row(Phase p) {
  return kPhaseTable[static_cast<int>(p)];
}

constexpr const char* phase_name(Phase p) { return phase_row(p).name; }

/// Human-readable kernel name (matches the paper's naming).
std::string_view kernel_name(Kernel k);

/// Short kernel tag: the kernel's own phase-table row name ("collide",
/// "spread", ...), used as its span name and metric label.
const char* kernel_short_name(Kernel k);

/// Paper index of the kernel (1-based, as used in Algorithm 1 and Table I).
int kernel_paper_index(Kernel k);

/// Accumulates wall time per phase-table row. Not thread-safe by itself;
/// parallel solvers keep one KernelProfiler per thread and merge them.
class KernelProfiler {
 public:
  /// RAII scope that charges its lifetime to one phase row.
  class Scope {
   public:
    Scope(KernelProfiler& p, Phase phase)
        : profiler_(p), phase_(phase), start_(Clock::now()) {}
    ~Scope() {
      profiler_.add(phase_,
                    std::chrono::duration<double>(Clock::now() - start_)
                        .count());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    using Clock = std::chrono::steady_clock;
    KernelProfiler& profiler_;
    Phase phase_;
    Clock::time_point start_;
  };

  void add(Phase p, double seconds) {
    seconds_[static_cast<int>(p)] += seconds;
  }

  /// Seconds of one row.
  double seconds(Phase p) const { return seconds_[static_cast<int>(p)]; }
  /// Seconds billed to a kernel: the sum of the rows that bill it.
  double seconds(Kernel k) const;

  /// Total time across all rows.
  double total_seconds() const;

  /// Merge another profiler's accumulated time into this one.
  KernelProfiler& operator+=(const KernelProfiler& other);

  void clear() { seconds_.fill(0.0); }

  /// One row of the Table-I style report.
  struct Row {
    Kernel kernel;
    int paper_index;          // 1..9 as in Algorithm 1
    std::string name;
    double seconds;
    double percent_of_total;  // 0..100
  };

  /// Rows sorted by descending time share, like the paper's Table I.
  std::vector<Row> ranked_rows() const;

  /// Render the ranked rows as a fixed-width text table.
  std::string report() const;

 private:
  std::array<double, kNumPhases> seconds_{};
};

/// Table-I style report extended with per-thread spread columns: per
/// kernel the min/max per-thread seconds and the imbalance factor
/// (max over mean across threads — the paper's Table II diagnostic).
/// `aggregate` supplies the Seconds/% columns exactly like
/// KernelProfiler::report(); `per_thread` is what the solver's
/// per_thread_profiles() returns (a single entry collapses the spread
/// columns to min == max, imbalance 1).
std::string kernel_report(const KernelProfiler& aggregate,
                          const std::vector<KernelProfiler>& per_thread);

}  // namespace lbmib
