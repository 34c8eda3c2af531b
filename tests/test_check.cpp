// Tests for the runtime invariant-checking utilities (util/check.h):
// the failure paths every precondition in the library reports through.

#include "util/check.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tensor/shape.h"

namespace bkc {
namespace {

TEST(Check, TrueConditionDoesNotThrow) {
  EXPECT_NO_THROW(check(true, "never reported"));
}

TEST(Check, FalseConditionThrowsCheckError) {
  EXPECT_THROW(check(false, "boom"), CheckError);
}

TEST(Check, CheckErrorIsALogicError) {
  // Callers that only know std::logic_error must still catch it.
  EXPECT_THROW(check(false, "boom"), std::logic_error);
}

TEST(Check, MessageCarriesTextAndSourceLocation) {
  try {
    check(false, "tensor shape mismatch");
    FAIL() << "check(false, ...) must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tensor shape mismatch"), std::string::npos) << what;
    // The location prefix names this translation unit and a line.
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find(':'), std::string::npos) << what;
  }
}

/// The `what()` text of the CheckError `check(false, parts...)` throws.
template <typename... Parts>
std::string failure_text(Parts&&... parts) {
  try {
    check(false, std::forward<Parts>(parts)...);
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "check(false, ...) must throw";
  return {};
}

/// Everything after the "<file>:<line>: " prefix.
std::string without_location(const std::string& what) {
  const std::size_t colon = what.find(':');
  const std::size_t end = what.find(": ", colon + 1);
  return end == std::string::npos ? what : what.substr(end + 2);
}

TEST(Check, MessageIsThePartsConcatenated) {
  const std::int64_t offset = -5;
  const std::size_t count = 18446744073709551615u;
  const double ratio = 1.0 / 3.0;
  const std::string context = "BKCM section 'CONF'";
  const std::string_view name = "view";
  const std::string expected =
      context + ": offset " + std::to_string(offset) + ", count " +
      std::to_string(count) + ", ratio " + std::to_string(ratio) + ", " +
      std::to_string(-7) + " " + std::to_string(-2.5) + " " +
      std::to_string(std::uint8_t{200}) + " " + std::string(name) + " " +
      KernelShape{2, 3, 3, 3}.to_string() + " " +
      FeatureShape{4, 5, 6}.to_string();
  EXPECT_EQ(without_location(failure_text(
                context, ": offset ", offset, ", count ", count, ", ratio ",
                ratio, ", ", -7, " ", -2.5, " ", std::uint8_t{200}, " ", name,
                " ", KernelShape{2, 3, 3, 3}, " ", FeatureShape{4, 5, 6})),
            expected);
}

TEST(Check, PrefixIsTheCallersFileAndLine) {
  std::string what;
  const int line = __LINE__ + 2;
  try {
    check(1 + 1 == 3,
          "multi-line ", 1,
          " call");
  } catch (const CheckError& e) {
    what = e.what();
  }
  EXPECT_EQ(what, std::string(__FILE__) + ":" + std::to_string(line) +
                      ": multi-line 1 call");
  EXPECT_EQ(what.find("check.h"), std::string::npos) << what;
}

TEST(Check, PassingCheckNeverFormatsItsParts) {
  // A part whose formatting is observable: to_string() runs only on the
  // throw path.
  struct Counted {
    int* calls;
    std::string to_string() const {
      ++*calls;
      return "counted";
    }
  };
  int calls = 0;
  check(true, "never built: ", Counted{&calls});
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(without_location(failure_text("built: ", Counted{&calls})),
            "built: counted");
  EXPECT_EQ(calls, 1);
}

/// Whether check() accepts a part of type T (an rvalue for a non-
/// reference T, an lvalue for T&).
template <typename T>
constexpr bool accepts_part =
    requires(T&& part) { check(true, std::forward<T>(part)); };

// A std::string temporary would be built on every call, failing or
// not, so it must not compile as a part; lvalue strings, views,
// literals, numbers and to_string() objects do.
static_assert(!accepts_part<std::string>);
static_assert(!accepts_part<const std::string>);
static_assert(accepts_part<std::string&>);
static_assert(accepts_part<const std::string&>);
static_assert(accepts_part<std::string_view>);
static_assert(accepts_part<const char*>);
static_assert(accepts_part<const char (&)[4]>);
static_assert(accepts_part<int>);
static_assert(accepts_part<std::size_t&>);
static_assert(accepts_part<double>);
static_assert(accepts_part<KernelShape>);
static_assert(accepts_part<const FeatureShape&>);
static_assert(!accepts_part<std::vector<int>>);

/// Whether check() accepts a prvalue T as a part.
template <typename T>
constexpr bool accepts_prvalue_part = requires { check(true, T{}); };
static_assert(!accepts_prvalue_part<std::string>);
static_assert(accepts_prvalue_part<std::string_view>);
static_assert(accepts_prvalue_part<std::int64_t>);

/// Whether check() accepts the message style it replaced.
template <typename T>
constexpr bool accepts_concatenated_message =
    requires(T i) { check(true, "x " + std::to_string(i)); };
static_assert(!accepts_concatenated_message<int>);

TEST(Check, UnreachableAlwaysThrows) {
  EXPECT_THROW(unreachable("impossible decoder state"), std::logic_error);
}

TEST(Check, UnreachableMessageIsLabelled) {
  try {
    unreachable("impossible decoder state");
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unreachable"), std::string::npos) << what;
    EXPECT_NE(what.find("impossible decoder state"), std::string::npos)
        << what;
  }
}

TEST(Check, UnreachableIsNotACheckError) {
  // unreachable() reports library bugs, not caller mistakes; it must
  // not be confused with precondition violations.
  try {
    unreachable("internal");
    FAIL() << "unreachable() must throw";
  } catch (const CheckError&) {
    FAIL() << "unreachable() must not throw CheckError";
  } catch (const std::logic_error&) {
    SUCCEED();
  }
}

}  // namespace
}  // namespace bkc
