// Hardware performance counters attached to kernel spans — the
// measurement leg of the performance observatory (DESIGN.md §18).
//
// A perf_event_open(2) wrapper sampling one per-thread counter group
// (cycles, instructions, LLC references/misses, stalled backend cycles,
// dTLB misses, plus the always-available software task-clock and
// page-fault events). obs::Span samples the group at kernel/task span
// boundaries, so every one of the nine Algorithm-1 kernels in all six
// solvers accumulates counter deltas keyed by its span name — the data
// the roofline report (perfmodel/roofline.hpp) joins against the
// analytic D3Q19 traffic model.
//
// Graceful degradation is the contract, not an afterthought: the first
// start() probes which events the host actually grants (containers,
// perf_event_paranoid lockdown, and VMs without a vPMU all say no to
// different subsets), opens only those, and when *nothing* is grantable
// logs a single warning and stays inactive — the run continues
// time-only with identical exit status. Availability is exported as
// lbmib_perf_event_available gauges so scrapes are self-describing.
//
// Cost model, mirroring the tracer:
//   * inactive: one relaxed atomic load per kernel span;
//   * active: two read(2) calls on the group fd per kernel span (one
//     syscall reads every event of the group at once) plus ~20 relaxed
//     stores into the calling thread's accumulation slots.
//
// Counter values are multiplex-corrected: groups larger than the PMU
// are time-shared by the kernel, and deltas are scaled by
// time_enabled/time_running exactly like perf(1) does.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lbmib::obs {

/// The counter group, in the order slots appear in reports. Hardware
/// events first; the two software events at the end are the fallback
/// that keeps the observatory alive on PMU-less hosts.
enum class PerfEvent : int {
  kCycles = 0,
  kInstructions = 1,
  kLlcReferences = 2,
  kLlcMisses = 3,
  kStalledBackend = 4,
  kDtlbMisses = 5,
  kTaskClock = 6,   ///< software: ns of CPU time (always grantable)
  kPageFaults = 7,  ///< software
};

inline constexpr int kNumPerfEvents = 8;

/// Short stable name for reports and metric labels ("cycles", ...).
const char* perf_event_name(PerfEvent e);

/// Which events the host grants. Probed once per process (first
/// availability()/start() call) by opening and closing a throwaway
/// counter per event on the calling thread.
struct PerfAvailability {
  bool any = false;       ///< at least one event opened
  bool hardware = false;  ///< cycles AND instructions opened
  std::array<bool, kNumPerfEvents> event{};
  /// errno of the first failed hardware-event open (0 when all opened);
  /// names the reason in the single degradation warning.
  int first_error = 0;
  std::string to_string() const;
};

/// One group read. `value` is indexed by PerfEvent; events the host did
/// not grant stay 0 and are excluded from accumulation.
struct PerfSample {
  std::array<std::uint64_t, kNumPerfEvents> value{};
  std::uint64_t time_enabled = 0;
  std::uint64_t time_running = 0;
  bool valid = false;
};

/// Per-kernel counter totals aggregated across threads, keyed by the
/// span name the deltas were recorded under ("collide_stream", ...).
struct KernelCounters {
  std::string name;
  std::uint64_t spans = 0;
  /// Multiplex-corrected event sums, indexed by PerfEvent.
  std::array<double, kNumPerfEvents> value{};

  double cycles() const {
    return value[static_cast<int>(PerfEvent::kCycles)];
  }
  double instructions() const {
    return value[static_cast<int>(PerfEvent::kInstructions)];
  }
  /// Instructions per cycle; 0 when either event is unavailable. The
  /// roofline derives its own counter columns (perfmodel/roofline.hpp).
  double ipc() const {
    return cycles() > 0.0 ? instructions() / cycles() : 0.0;
  }
};

/// Process-wide counter control, following the Tracer pattern: static
/// methods, one session at a time, per-thread state armed lazily at a
/// thread's first sampled span.
class PerfCounters {
 public:
  /// Hot-path guard: true while a counting session is recording.
  static bool active() {
    return g_active.load(std::memory_order_relaxed);
  }

  /// Probe result (cached after the first call; never throws).
  static const PerfAvailability& availability();

  /// Begin a counting session. Returns true when at least one event is
  /// grantable; otherwise logs one warning and stays inactive — callers
  /// need no error handling, the run simply stays time-only. Also
  /// registers the lbmib_perf_event_available gauges.
  static bool start();

  /// Stop recording; accumulated totals stay available to snapshot().
  static void stop();

  /// Discard the totals of the current session (a new session via
  /// start() also begins empty).
  static void reset();

  /// Read the calling thread's counter group into `out` (out.valid
  /// false when the thread's group could not be opened). Called by
  /// Span; only useful between begin/end pairs.
  static void begin(PerfSample& out);

  /// Accumulate the delta since `begin` under `name` (a string literal;
  /// the pointer is stored). No-op when begin was invalid.
  static void end(const char* name, const PerfSample& begin);

  /// Aggregated per-kernel totals of the current session across all
  /// threads, sorted by descending cycles (task-clock when cycles are
  /// unavailable). Safe to call while recording: slots are read with
  /// relaxed atomics and a just-written delta may or may not be
  /// included.
  static std::vector<KernelCounters> snapshot();

 private:
  static std::atomic<bool> g_active;
};

}  // namespace lbmib::obs
