// lbmib-raw-timing must flag hand-written phase timing in a solver body:
// raw steady_clock reads (also through an alias) and WallTimer.
//
// EXPECT: hand-timed phase in a solver body ('steady_clock
// EXPECT: hand-timed phase in a solver body ('WallTimer')
// EXPECT: wrap the phase in KernelScope (src/core/instrument.hpp)
#include "stub_lbmib.h"

void collide(lbmib::KernelProfiler& prof) {
  auto t0 = std::chrono::steady_clock::now();
  (void)t0;
  prof.add(lbmib::Phase::kCollideStream, 0.0);
}

void stream(lbmib::KernelProfiler& prof) {
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  (void)t0;
  prof.add(lbmib::Phase::kCollideStream, 0.0);
}

void swap(lbmib::KernelProfiler& prof) {
  lbmib::WallTimer timer;
  prof.add(lbmib::Phase::kCollideStream, timer.seconds());
}
