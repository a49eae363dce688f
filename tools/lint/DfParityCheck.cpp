#include "DfParityCheck.h"

#include "LbmibTidyUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace lbmib {

DfParityCheck::DfParityCheck(StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      SwapPathRegex(Options.get(
          "SwapPathRegex",
          "(^|/)src/(core/[a-z0-9_]+_solver\\.cpp|lbm/fluid_grid\\.|"
          "cube/cube_grid\\.)")),
      GridInternalPathRegex(Options.get(
          "GridInternalPathRegex",
          "(^|/)src/(cube/cube_grid\\.|lbm/fluid_grid\\.)")) {}

void DfParityCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "SwapPathRegex", SwapPathRegex);
  Options.store(Opts, "GridInternalPathRegex", GridInternalPathRegex);
}

void DfParityCheck::registerMatchers(ast_matchers::MatchFinder *Finder) {
  Finder->addMatcher(
      cxxMemberCallExpr(callee(cxxMethodDecl(hasAnyName(
                            "swap_buffers", "swap_df_buffers"))
                                   .bind("swapfn")),
                        unless(isExpansionInSystemHeader()))
          .bind("swap"),
      this);
  Finder->addMatcher(
      declRefExpr(to(varDecl(hasAnyName("kDfSlot", "kDfNewSlot"))
                         .bind("slotconst")),
                  unless(isExpansionInSystemHeader()))
          .bind("slotref"),
      this);
  Finder->addMatcher(
      memberExpr(member(fieldDecl(hasAnyName("df_", "df_new_", "df_base_",
                                             "df_new_base_"))
                            .bind("rawfield")),
                 unless(isExpansionInSystemHeader()))
          .bind("rawref"),
      this);
}

void DfParityCheck::check(
    const ast_matchers::MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;

  if (const auto *Swap = Result.Nodes.getNodeAs<CXXMemberCallExpr>("swap")) {
    const auto *Fn = Result.Nodes.getNodeAs<CXXMethodDecl>("swapfn");
    const SourceLocation Loc = Swap->getBeginLoc();
    if (pathMatches(SwapPathRegex, locationPath(SM, Loc)))
      return;
    diag(Loc, "'%0' flips the df/df_new parity; only the solver step "
              "loops (src/core/*_solver.cpp) may call it — everything "
              "else must read through the parity accessors")
        << Fn->getNameAsString();
    return;
  }

  if (const auto *Ref = Result.Nodes.getNodeAs<DeclRefExpr>("slotref")) {
    const auto *C = Result.Nodes.getNodeAs<VarDecl>("slotconst");
    const SourceLocation Loc = Ref->getBeginLoc();
    if (pathMatches(GridInternalPathRegex, locationPath(SM, Loc)))
      return;
    diag(Loc, "raw df slot constant '%0' names the construction-time "
              "layout and is wrong after swap_df_buffers(); use "
              "df_slot_base()/df_new_slot_base(), or "
              "CubeGrid::df_base_for(parity) for a captured parity")
        << C->getNameAsString();
    return;
  }

  if (const auto *Ref = Result.Nodes.getNodeAs<MemberExpr>("rawref")) {
    const auto *F = Result.Nodes.getNodeAs<FieldDecl>("rawfield");
    const SourceLocation Loc = Ref->getBeginLoc();
    if (pathMatches(GridInternalPathRegex, locationPath(SM, Loc)))
      return;
    diag(Loc, "direct access to df storage '%0' bypasses the parity "
              "accessors; read through df()/df_new() or the slot-base "
              "helpers")
        << F->getNameAsString();
  }
}

} // namespace lbmib
} // namespace tidy
} // namespace clang
