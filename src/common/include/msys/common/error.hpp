// Error handling used across the project: constructor/precondition failures
// throw msys::Error; recoverable "this schedule does not fit" conditions are
// reported through return values, never exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace msys {

/// Project-wide exception type.  Thrown only for programming/usage errors
/// (violated preconditions, malformed inputs), never for expected outcomes
/// such as "the workload does not fit this Frame Buffer".
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] void raise(const std::string& message);

namespace detail {
[[noreturn]] void require_failed(const char* condition, const std::string& message);
}  // namespace detail

}  // namespace msys

/// Precondition check that survives NDEBUG: scheduling bugs must never be
/// silently costed, they must abort the run with the message and the failed
/// condition (no source location: a diagnostic reads the same everywhere).
#define MSYS_REQUIRE(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::msys::detail::require_failed(#cond, (msg));                          \
    }                                                                        \
  } while (false)
