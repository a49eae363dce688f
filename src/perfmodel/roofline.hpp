// Per-kernel roofline report — the analytic leg of the performance
// observatory (DESIGN.md §18).
//
// Joins three data sources:
//   1. an analytic traffic model: minimum bytes and flops each
//      Algorithm-1 kernel must move/execute per work unit (lattice node
//      for the LBM kernels, fiber point for the IB kernels), derived
//      from the D3Q19 structure-of-arrays layout in fluid_grid.hpp;
//   2. measured peaks of the host, probed in-process: a STREAM-triad
//      style sweep for memory bandwidth and an FMA dependency-free loop
//      for peak flops — so the roofline is drawn against what *this*
//      build on *this* machine can actually reach, not a spec sheet;
//   3. per-kernel measurements from the run: seconds (KernelProfiler /
//      spans) and, when the host grants perf_event_open, hardware
//      counters (obs/perf_counters.hpp) for IPC, LLC miss rates and a
//      second, measured bytes/s estimate (LLC misses × line size).
//
// The verdict column answers PR 8's claim directly: a kernel whose
// arithmetic intensity sits below the machine balance is
// bandwidth-bound — its ceiling is peaks.gbps × AI, and the closeness
// of achieved GB/s to the triad peak says how near the roof it runs.
//
// This module has no dependency on obs/ or core/: callers translate
// their measurements into KernelMeasurement rows.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace lbmib::perfmodel {

/// Analytic minimum traffic of one kernel, per work unit.
struct KernelTraffic {
  const char* span_name;  ///< span name the measurement is keyed by
  const char* unit;       ///< "node" or "point"
  double bytes_per_unit;  ///< compulsory read+write bytes
  double flops_per_unit;  ///< floating-point ops (FMA = 2)
};

/// Traffic model row for a span name ("collide_stream", "spread", ...);
/// nullptr for names the model does not cover (swap_df is O(1)).
const KernelTraffic* kernel_traffic(const std::string& span_name);

/// All modeled kernels (for tests and docs).
const std::vector<KernelTraffic>& kernel_traffic_table();

/// Measured capability of this host/build.
struct MachinePeaks {
  double gbps = 0.0;    ///< triad read+write bandwidth, all threads
  double gflops = 0.0;  ///< FMA peak, all threads
  int threads = 1;
  /// Machine balance in flops/byte: AI below this is bandwidth-bound.
  double balance() const { return gbps > 0.0 ? gflops / gbps : 0.0; }
};

/// STREAM-triad style bandwidth probe (~tens of ms). `threads` > 1 uses
/// an OpenMP parallel sweep, matching how the solvers stress the bus.
double measure_peak_bandwidth_gbps(int threads);

/// Dependency-free FMA loop peak (~tens of ms).
double measure_peak_gflops(int threads);

MachinePeaks measure_machine_peaks(int threads);

/// One kernel's measured totals for the run being analyzed.
struct KernelMeasurement {
  std::string name;      ///< span name
  double seconds = 0.0;  ///< busy seconds on the critical thread
  double units = 0.0;    ///< node-steps or point-steps executed
  /// Counter sums (has_counters=false when no counter session sampled
  /// the kernel — every derived column degrades to "-"). An event the
  /// host did not grant reads 0 here; build_roofline's `events` says
  /// which.
  bool has_counters = false;
  double cycles = 0.0;
  double instructions = 0.0;
  double llc_references = 0.0;
  double llc_misses = 0.0;
  double stalled_backend = 0.0;
};

struct RooflineRow {
  std::string kernel;
  const char* unit = "node";
  double seconds = 0.0;
  double units = 0.0;
  double ai = 0.0;             ///< flops/byte from the model
  double model_gbytes = 0.0;   ///< analytic traffic of the whole run
  double achieved_gbps = 0.0;  ///< model bytes / measured seconds
  double achieved_gflops = 0.0;
  double roof_gbps = 0.0;  ///< bandwidth ceiling (= peaks.gbps)
  bool bandwidth_bound = false;
  double roof_fraction = 0.0;  ///< achieved / applicable roof
  // Counter-derived columns. has_counters: a counter session sampled the
  // kernel. A column is empty unless every event it derives from was
  // granted.
  bool has_counters = false;
  std::optional<double> ipc;
  std::optional<double> llc_miss_rate;
  std::optional<double> llc_miss_per_unit;
  std::optional<double> measured_gbps;  ///< LLC misses × 64B / seconds
  std::optional<double> stalled_frac;
};

/// (perf event name, granted by the host), as the caller probed it.
using EventAvailability = std::vector<std::pair<std::string, bool>>;

struct RooflineReport {
  MachinePeaks peaks;
  /// Some row carries a measured counter column: a granted hardware
  /// event counted.
  bool counters_available = false;
  std::string availability;  ///< human-readable probe summary
  EventAvailability events;
  std::vector<RooflineRow> rows;

  /// Fixed-width table with a per-kernel bound verdict.
  std::string to_string() const;
  /// JSON object (machine peaks, events + rows) for BENCH_step.json
  /// embedding; an empty counter column is null.
  std::string json() const;
};

/// Build the report: joins measurements against the traffic model
/// (rows without a model entry are dropped) and classifies each kernel
/// against `peaks`. `events` decides which counter columns are
/// measured (none when empty). Rows are ordered by descending seconds.
RooflineReport build_roofline(const std::vector<KernelMeasurement>& ms,
                              const MachinePeaks& peaks,
                              const EventAvailability& events = {});

}  // namespace lbmib::perfmodel
