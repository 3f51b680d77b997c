#include "msys/common/error.hpp"

namespace msys {

void raise(const std::string& message) { throw Error(message); }

namespace detail {

void require_failed(const char* condition, const std::string& message) {
  throw Error("MSYS_REQUIRE failed: " + message + " [" + condition + ']');
}

}  // namespace detail
}  // namespace msys
