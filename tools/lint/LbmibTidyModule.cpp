// lbmib-tidy: the library's own concurrency and kernel-phase protocols
// as clang-tidy checks (DESIGN.md §17).
//
// The dynamic tooling — race detector (§12), watchdog (§14), model
// checker (§15) — only sees code that routes through the instrumented
// seams in src/parallel/. These six checks make the routing itself a
// compile-time rule, so a raw std::mutex or a stale df slot constant is
// caught at review time instead of at the first hang:
//
//   lbmib-raw-sync             raw std sync outside src/parallel/
//   lbmib-missing-cancel-point unbounded loops with no cancel/heartbeat
//   lbmib-df-parity            parity-swap protocol (PR 3)
//   lbmib-lock-discipline      RAII guards; no blocking under SpinLock
//   lbmib-nondeterminism       replayability of kernels and schedulers
//   lbmib-raw-timing           solver bodies time phases via KernelScope
//
// Load with:
//   clang-tidy --load=liblbmib_tidy.so --checks='-*,lbmib-*' ...
// or via scripts/run_clang_tidy.sh --lbmib <plugin.so>, which the
// scripts/lint.sh driver arranges automatically.
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

#include "DfParityCheck.h"
#include "LockDisciplineCheck.h"
#include "MissingCancelPointCheck.h"
#include "NondeterminismCheck.h"
#include "RawSyncCheck.h"
#include "RawTimingCheck.h"

namespace clang {
namespace tidy {
namespace lbmib {

class LbmibTidyModule : public ClangTidyModule {
public:
  void addCheckFactories(ClangTidyCheckFactories &Factories) override {
    Factories.registerCheck<RawSyncCheck>("lbmib-raw-sync");
    Factories.registerCheck<MissingCancelPointCheck>(
        "lbmib-missing-cancel-point");
    Factories.registerCheck<DfParityCheck>("lbmib-df-parity");
    Factories.registerCheck<LockDisciplineCheck>("lbmib-lock-discipline");
    Factories.registerCheck<NondeterminismCheck>("lbmib-nondeterminism");
    Factories.registerCheck<RawTimingCheck>("lbmib-raw-timing");
  }
};

} // namespace lbmib

// Register the module with the host clang-tidy's registry when the
// shared object is --load'ed.
static ClangTidyModuleRegistry::Add<lbmib::LbmibTidyModule>
    X("lbmib-module", "LBM-IB concurrency and kernel-phase protocol checks.");

// Pull the module in when linked statically (mirrors the upstream
// module anchor idiom; harmless for the plugin build).
volatile int LbmibTidyModuleAnchorSource = 0;

} // namespace tidy
} // namespace clang
