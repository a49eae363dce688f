// A solver body that times its phases through KernelScope must pass
// lbmib-raw-timing.
//
// EXPECT-CLEAN
#include "stub_lbmib.h"

void collide_stream(lbmib::KernelProfiler& prof) {
  lbmib::KernelScope scope(prof, lbmib::Phase::kCollideStream);
}

void task(lbmib::KernelProfiler& prof, long cube) {
  lbmib::KernelScope scope(prof, lbmib::Phase::kBending, cube);
}
