// Error handling helpers: library exception type and checked preconditions.
#pragma once

#include <stdexcept>
#include <string>

namespace lbmib {

/// Exception thrown for all recoverable LBM-IB errors (bad parameters,
/// malformed files, inconsistent configuration).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throw `Error` with `message` unless `condition` holds. Used to validate
/// user-facing API preconditions; internal invariants use assert().
inline void require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

/// The literal-message form: builds the string only when it throws, so a
/// check that holds allocates nothing (the access checker runs some on
/// every cube write of a checked build's time step).
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

}  // namespace lbmib
