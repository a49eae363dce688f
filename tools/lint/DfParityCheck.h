// lbmib-df-parity: the PR-3 O(1) buffer-swap protocol. Kernel 9 of the
// fused pipeline retargets df/df_new instead of copying 19 planes, so
// *which* storage "df" means flips every step. Three things therefore
// belong only to specific TUs:
//   * swap_buffers / swap_df_buffers — the parity pivots; only the
//     solver step loops may call them (a swap anywhere else silently
//     shears the fields mid-step),
//   * the raw slot constants kDfSlot / kDfNewSlot — indexing with them
//     reads the construction-time layout, wrong after any odd number of
//     swaps; use df_slot_base()/df_new_slot_base() (or
//     CubeGrid::df_base_for when a captured parity is threaded through,
//     as the overlapped dataflow solver does),
//   * the raw df_/df_new_ buffers themselves.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {
namespace tidy {
namespace lbmib {

class DfParityCheck : public ClangTidyCheck {
public:
  DfParityCheck(StringRef Name, ClangTidyContext *Context);
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

private:
  /// TUs allowed to flip parity: the six solver step loops plus the
  /// grid classes that own the mechanism.
  const std::string SwapPathRegex;
  /// Files allowed to see the raw slot layout: the grid internals.
  const std::string GridInternalPathRegex;
};

} // namespace lbmib
} // namespace tidy
} // namespace clang
