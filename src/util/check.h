#pragma once
// Runtime invariant checking for the bkc library.
//
// Following the C++ Core Guidelines (I.6/E.12), preconditions are checked
// at API boundaries and violations are reported with exceptions carrying a
// useful message. `check()` is for conditions that depend on caller input;
// unreachable internal states use `unreachable()`.

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace bkc {

/// Thrown when a precondition or invariant documented in a public API is
/// violated by the caller (bad shape, out-of-range index, malformed stream).
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// What check() accepts as a message part, deduced as a forwarding
/// reference: text (a literal, a string_view, an lvalue std::string),
/// an arithmetic value, or an object with a to_string() member. A
/// std::string temporary is rejected: building it would cost a heap
/// allocation on every call, failing or not.
template <typename Part>
concept CheckPart =
    !std::is_same_v<std::remove_cv_t<Part>, std::string> &&
    (std::is_convertible_v<Part, std::string_view> ||
     std::is_arithmetic_v<std::remove_cvref_t<Part>> ||
     requires(const std::remove_cvref_t<Part>& part) {
       { part.to_string() } -> std::convertible_to<std::string>;
     });

template <typename Part>
void append_part(std::string& out, const Part& part) {
  if constexpr (std::is_arithmetic_v<Part>) {
    out += std::to_string(part);
  } else if constexpr (std::is_convertible_v<const Part&, std::string_view>) {
    out += std::string_view(part);
  } else {
    out += part.to_string();
  }
}

template <typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void throw_check_error(
    const std::source_location& loc, const Parts&... parts) {
  std::string message = std::string(loc.file_name()) + ":" +
                        std::to_string(loc.line()) + ": ";
  (append_part(message, parts), ...);
  throw CheckError(message);
}

/// check()'s condition. Converting the caller's bool into it is what
/// records the caller's source location: a default argument cannot
/// follow check()'s message parts, but it can ride on the first one.
struct CheckCondition {
  CheckCondition(  // NOLINT(google-explicit-constructor)
      bool holds, std::source_location loc = std::source_location::current())
      : holds(holds), loc(loc) {}

  bool holds;
  std::source_location loc;
};

}  // namespace detail

/// Verify a caller-facing precondition: `check(cond, "part ", i, ...)`.
/// On failure, throws CheckError with the caller's file and line and the
/// parts concatenated, numbers formatted as std::to_string formats them.
/// The message is built only on that throw path, so a passing check
/// costs one branch and never allocates; it is therefore not compiled
/// out in release builds. Pass the parts, never a prebuilt string.
template <typename... Parts>
  requires(detail::CheckPart<Parts> && ...)
void check(detail::CheckCondition condition, Parts&&... parts) {
  if (!condition.holds) [[unlikely]] {
    detail::throw_check_error(condition.loc, parts...);
  }
}

/// Report an internal state that should be impossible. Used instead of
/// assert(false) so the failure is diagnosable in release builds too.
[[noreturn]] inline void unreachable(
    const std::string& message,
    std::source_location loc = std::source_location::current()) {
  throw std::logic_error(std::string(loc.file_name()) + ":" +
                         std::to_string(loc.line()) +
                         ": unreachable: " + message);
}

}  // namespace bkc
