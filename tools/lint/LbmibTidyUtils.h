// Shared helpers for the lbmib-tidy checks.
//
// Every check is scoped by file path: the protocols they enforce have a
// home (src/parallel/ owns raw synchronization, the solver TUs own the
// parity swap), so "is this location allowed to do that?" is a path
// regex decided per check, overridable through the standard clang-tidy
// check options (tests point the regexes at fixture directories).
// lbmib-raw-timing's regex is fixed and already covers its fixtures.
//
// The path compared is the *expansion* location's file name as the
// compiler saw it (relative or absolute depending on how the compile
// database invoked it), so the default regexes anchor on path suffixes
// like "(^|/)src/parallel/" rather than absolute prefixes.
#pragma once

#include "clang-tidy/ClangTidyCheck.h"
#include "clang/Basic/SourceManager.h"
#include "llvm/ADT/SmallVector.h"
#include "llvm/ADT/StringRef.h"
#include "llvm/Support/Regex.h"

namespace clang {
namespace tidy {
namespace lbmib {

/// File name of the expansion location of `Loc` ("" when invalid).
inline llvm::StringRef locationPath(const SourceManager &SM,
                                    SourceLocation Loc) {
  if (Loc.isInvalid())
    return llvm::StringRef();
  return SM.getFilename(SM.getExpansionLoc(Loc));
}

/// True when `Path` is non-empty and matches `RE`. An empty pattern
/// never matches (llvm::Regex("") matches everything, which would turn
/// an unset allowlist into "allow all"; the checks want the opposite).
inline bool pathMatches(const std::string &Pattern, llvm::StringRef Path) {
  if (Pattern.empty() || Path.empty())
    return false;
  llvm::Regex RE(Pattern);
  return RE.match(Path);
}

/// Comma-separated option list -> vector of trimmed names.
inline llvm::SmallVector<llvm::StringRef, 16>
splitNameList(llvm::StringRef List) {
  llvm::SmallVector<llvm::StringRef, 16> Parts;
  List.split(Parts, ',', /*MaxSplit=*/-1, /*KeepEmpty=*/false);
  for (auto &P : Parts)
    P = P.trim();
  return Parts;
}

} // namespace lbmib
} // namespace tidy
} // namespace clang
