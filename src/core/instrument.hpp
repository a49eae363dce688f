// The solvers' one instrumentation seam.
//
// KernelScope brackets one phase-table row (common/profiler.hpp): it
// times into the calling thread's KernelProfiler and emits the row's
// span, whose kernel and task spans also sample the perf counters under
// the row name. sync_point() is every named sync point of a step. The
// solver step loops time their phases through nothing else (the lint
// check lbmib-raw-timing keeps raw clocks out of them).
#pragma once

#include <cstdint>

#include "common/profiler.hpp"
#include "obs/trace.hpp"
#include "parallel/access_checker.hpp"
#include "parallel/barrier.hpp"
#include "parallel/cancel.hpp"
#include "parallel/chaos.hpp"
#include "parallel/race_detector.hpp"

namespace lbmib {

/// Times one phase into `prof` and emits its span (arg: cube id, rank,
/// or -1). In LBMIB_TRACE=OFF builds it only times.
class KernelScope {
 public:
  KernelScope(KernelProfiler& prof, Phase phase,
              [[maybe_unused]] std::int64_t arg = -1)
      : timer_(prof, phase)
#if LBMIB_TRACE_ENABLED
        ,
        span_(kSpanCat[static_cast<int>(phase_row(phase).cat)],
              phase_name(phase), arg)
#endif
  {
  }

 private:
  KernelProfiler::Scope timer_;
#if LBMIB_TRACE_ENABLED
  /// Span category per PhaseCat, in PhaseCat order.
  static constexpr obs::SpanCat kSpanCat[] = {
      obs::SpanCat::kKernel, obs::SpanCat::kTask, obs::SpanCat::kHalo};
  obs::Span span_;
#endif
};

/// A named sync point: stamps the heartbeat, runs the chaos hook and
/// sets the race-detector context to `label`, the sync point the thread
/// is heading into. `step` is -1 where the caller has none.
inline void sync_point(const char* label, int tid, Index step) {
  ProgressBoard::global().beat(label);
  if (chaos::enabled()) chaos::sync_point(label, tid, step);
  LBMIB_RACE_CHECK(race::context(label);)
}

/// Barrier form: the sync point, then the wait. A checked protocol
/// passes its access checker (null in unchecked builds), which the wait
/// advances to `next`, the StepPhase the barrier opens.
inline void sync_point(const char* label, int tid, Index step,
                       Barrier& barrier,
                       [[maybe_unused]] AccessChecker* checker = nullptr,
                       [[maybe_unused]] StepPhase next = StepPhase::kSpread) {
  sync_point(label, tid, step);
  barrier.arrive_and_wait();
  LBMIB_ACCESS_CHECK(if (checker != nullptr) checker->advance_phase(next);)
}

}  // namespace lbmib
