#include "NondeterminismCheck.h"

#include "LbmibTidyUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace lbmib {

namespace {

/// TUs where floating-point atomic accumulation is banned: the
/// simulation modules, plus this check's own lint fixtures. Fixed, as in
/// scripts/lbmib_lint.py: both engines enforce one scope.
const std::string FpAtomicPathRegex =
    "(^|/)(src/(lbm|ib|cube|core)/[^/]+|"
    "tests/lint/fixtures/nondeterminism_[a-z]+\\.cpp)$";

const char *const FpAtomicHint =
    "simulation state must sum in a fixed order: give each fluid node one "
    "writer (owner computes, DESIGN.md §7); only src/obs telemetry may "
    "accumulate atomically";

} // namespace

NondeterminismCheck::NondeterminismCheck(StringRef Name,
                                         ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context) {}

void NondeterminismCheck::registerMatchers(
    ast_matchers::MatchFinder *Finder) {
  // Hidden-input functions: C RNG, wall clocks.
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName("::rand", "::srand", "::time",
                                              "::clock", "::random",
                                              "::drand48", "::lrand48",
                                              "::gettimeofday"))
                          .bind("fn")),
               unless(isExpansionInSystemHeader()))
          .bind("call"),
      this);
  Finder->addMatcher(
      callExpr(callee(cxxMethodDecl(
                   hasName("now"),
                   ofClass(cxxRecordDecl(hasAnyName(
                       "::std::chrono::system_clock",
                       "::std::chrono::high_resolution_clock"))))),
               unless(isExpansionInSystemHeader()))
          .bind("wallclock"),
      this);
  Finder->addMatcher(
      varDecl(hasType(hasUnqualifiedDesugaredType(recordType(hasDeclaration(
                  cxxRecordDecl(hasName("::std::random_device")))))),
              unless(isExpansionInSystemHeader()))
          .bind("rd"),
      this);
  // Pointer-keyed ordered containers: address-order iteration.
  Finder->addMatcher(
      valueDecl(hasType(hasUnqualifiedDesugaredType(recordType(
                    hasDeclaration(classTemplateSpecializationDecl(
                                       hasAnyName("::std::map", "::std::set",
                                                  "::std::multimap",
                                                  "::std::multiset"),
                                       hasTemplateArgument(
                                           0, refersToType(pointerType())))
                                       .bind("container"))))),
                unless(isExpansionInSystemHeader()))
          .bind("ptrkeyed"),
      this);
  // Floating-point atomic accumulation: any std::atomic_ref over a
  // floating value, and read-modify-write adds on std::atomic<floating>.
  // Scoped by path in check().
  const auto FloatingArg =
      hasTemplateArgument(0, refersToType(realFloatingPointType()));
  Finder->addMatcher(
      cxxConstructExpr(
          hasType(hasUnqualifiedDesugaredType(recordType(
              hasDeclaration(classTemplateSpecializationDecl(
                  hasName("::std::atomic_ref"), FloatingArg))))),
          unless(isExpansionInSystemHeader()))
          .bind("fpatomicref"),
      this);
  Finder->addMatcher(
      cxxMemberCallExpr(
          on(hasType(hasUnqualifiedDesugaredType(
              recordType(hasDeclaration(classTemplateSpecializationDecl(
                  hasName("::std::atomic"), FloatingArg)))))),
          callee(cxxMethodDecl(hasAnyName("fetch_add", "fetch_sub",
                                          "compare_exchange_weak",
                                          "compare_exchange_strong"))
                     .bind("fpupdate")),
          unless(isExpansionInSystemHeader()))
          .bind("fpatomiccall"),
      this);
}

void NondeterminismCheck::check(
    const ast_matchers::MatchFinder::MatchResult &Result) {
  if (const auto *Call = Result.Nodes.getNodeAs<CallExpr>("call")) {
    const auto *Fn = Result.Nodes.getNodeAs<FunctionDecl>("fn");
    diag(Call->getBeginLoc(),
         "'%0' is nondeterministic across runs; kernel/scheduler code "
         "must stay replayable for the model checker and checkpoint "
         "replay — use lbmib::SplitMix64 (src/common/rng.hpp) with an "
         "explicit seed, or take the time as a parameter")
        << Fn->getNameAsString();
    return;
  }
  if (const auto *Call = Result.Nodes.getNodeAs<CallExpr>("wallclock")) {
    diag(Call->getBeginLoc(),
         "wall-clock read is nondeterministic across runs; use "
         "std::chrono::steady_clock for durations, or take the "
         "timestamp as a parameter so replays can pin it");
    return;
  }
  if (const auto *RD = Result.Nodes.getNodeAs<VarDecl>("rd")) {
    diag(RD->getLocation(),
         "std::random_device draws from the OS entropy pool and cannot "
         "be replayed; seed lbmib::SplitMix64 (src/common/rng.hpp) "
         "explicitly instead");
    return;
  }
  const SourceManager &SM = *Result.SourceManager;
  if (const auto *Ref =
          Result.Nodes.getNodeAs<CXXConstructExpr>("fpatomicref")) {
    if (pathMatches(FpAtomicPathRegex, locationPath(SM, Ref->getBeginLoc())))
      diag(Ref->getBeginLoc(),
           "std::atomic_ref over a floating-point value accumulates in "
           "schedule order; %0")
          << FpAtomicHint;
    return;
  }
  if (const auto *Call =
          Result.Nodes.getNodeAs<CXXMemberCallExpr>("fpatomiccall")) {
    const auto *Method = Result.Nodes.getNodeAs<CXXMethodDecl>("fpupdate");
    if (pathMatches(FpAtomicPathRegex, locationPath(SM, Call->getBeginLoc())))
      diag(Call->getBeginLoc(),
           "floating-point std::atomic updated by '%0' accumulates in "
           "schedule order; %1")
          << Method->getName() << FpAtomicHint;
    return;
  }
  if (const auto *D = Result.Nodes.getNodeAs<ValueDecl>("ptrkeyed")) {
    const auto *C =
        Result.Nodes.getNodeAs<ClassTemplateSpecializationDecl>("container");
    diag(D->getLocation(),
         "pointer-keyed '%0' iterates in address order, which differs "
         "run to run and breaks model-checker and checkpoint replay; "
         "key by a stable id instead")
        << C->getQualifiedNameAsString();
  }
}

} // namespace lbmib
} // namespace tidy
} // namespace clang
