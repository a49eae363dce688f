// lbmib-raw-timing: the solver step loops time each phase through one
// seam. KernelScope (src/core/instrument.hpp) times a phase-table row
// (src/common/profiler.hpp) into the thread's profiler and emits the
// row's span, whose kernel spans also key the perf counters — so the
// profiler bucket, the trace and the roofline row carry one name. A
// hand-written steady_clock read or WallTimer beside it is a second
// copy of that seam, free to bill a different bucket than its span
// says; in the solver TUs it is therefore an error.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {
namespace tidy {
namespace lbmib {

class RawTimingCheck : public ClangTidyCheck {
public:
  RawTimingCheck(StringRef Name, ClangTidyContext *Context);
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

} // namespace lbmib
} // namespace tidy
} // namespace clang
