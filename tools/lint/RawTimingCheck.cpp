#include "RawTimingCheck.h"

#include "LbmibTidyUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace lbmib {

namespace {

/// TUs the ban applies to: the solver step loops, plus this check's own
/// lint fixtures. Fixed, as in scripts/lbmib_lint.py: both engines
/// enforce one scope.
const std::string SolverPathRegex =
    "(^|/)(src/core/[a-z0-9_]+_solver\\.cpp|"
    "tests/lint/fixtures/raw_timing_[a-z]+\\.cpp)$";

} // namespace

RawTimingCheck::RawTimingCheck(StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context) {}

void RawTimingCheck::registerMatchers(ast_matchers::MatchFinder *Finder) {
  // steady_clock::now(), however it is spelled (aliases resolve here).
  Finder->addMatcher(
      callExpr(callee(cxxMethodDecl(hasName("now"),
                                    ofClass(cxxRecordDecl(hasName(
                                        "::std::chrono::steady_clock"))))),
               unless(isExpansionInSystemHeader()))
          .bind("now"),
      this);
  // A WallTimer object.
  Finder->addMatcher(
      varDecl(hasType(hasUnqualifiedDesugaredType(recordType(hasDeclaration(
                  cxxRecordDecl(hasName("::lbmib::WallTimer")))))),
              unless(isExpansionInSystemHeader()))
          .bind("timer"),
      this);
}

void RawTimingCheck::check(
    const ast_matchers::MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;
  SourceLocation Loc;
  StringRef What;
  if (const auto *Call = Result.Nodes.getNodeAs<CallExpr>("now")) {
    Loc = Call->getBeginLoc();
    What = "steady_clock::now";
  } else if (const auto *Timer = Result.Nodes.getNodeAs<VarDecl>("timer")) {
    Loc = Timer->getLocation();
    What = "WallTimer";
  } else {
    return;
  }
  if (!pathMatches(SolverPathRegex, locationPath(SM, Loc)))
    return;
  diag(Loc, "hand-timed phase in a solver body ('%0'); wrap the phase in "
            "KernelScope (src/core/instrument.hpp) so its profiler row, "
            "span and counters share one phase-table name")
      << What;
}

} // namespace lbmib
} // namespace tidy
} // namespace clang
