// lbmib-nondeterminism: kernel and scheduler code must be replayable.
// The model checker replays serialized schedules byte-for-byte
// (DESIGN.md §15) and ResilientRunner replays from checkpoints (§9);
// both assume that the same inputs produce the same execution. rand()
// and wall-clock reads smuggle hidden inputs in, and pointer-keyed
// ordered containers iterate in address order — different every run
// under ASLR. Use lbmib::SplitMix64 (src/common/rng.hpp) with an
// explicit seed, steady_clock for durations, and stable ids as map
// keys. In the simulation modules (src/lbm, src/ib, src/cube, src/core)
// floating-point atomic accumulation (std::atomic_ref over a floating
// value, or std::atomic<floating> updated by fetch_add/fetch_sub or a
// compare-exchange) is banned too: its sums land in schedule order.
// src/obs counters are telemetry and stay allowed.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {
namespace tidy {
namespace lbmib {

class NondeterminismCheck : public ClangTidyCheck {
public:
  NondeterminismCheck(StringRef Name, ClangTidyContext *Context);
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

} // namespace lbmib
} // namespace tidy
} // namespace clang
