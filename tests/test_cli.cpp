// Unit tests for the bench/example CLI helpers, in particular the
// positive_flag_value hardening: thread/image counts flow straight into
// parallel_for (precondition num_threads >= 1), so `--threads 0` and
// negative values must fail with a clear CheckError at the flag parser
// instead of deep inside the pool.

#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace bkc {
namespace {

/// Builds a mutable argv from string literals ("prog" is prepended).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(Cli, HasFlagDetectsPresence) {
  Argv args({"--tiny", "--threads", "4"});
  EXPECT_TRUE(has_flag(args.argc(), args.argv(), "--tiny"));
  EXPECT_TRUE(has_flag(args.argc(), args.argv(), "--threads"));
  EXPECT_FALSE(has_flag(args.argc(), args.argv(), "--images"));
}

TEST(Cli, FlagValueParsesAndFallsBack) {
  Argv args({"--threads", "4"});
  EXPECT_EQ(flag_value(args.argc(), args.argv(), "--threads", 2), 4);
  EXPECT_EQ(flag_value(args.argc(), args.argv(), "--images", 8), 8);
}

TEST(Cli, FlagValueParsesEqualsForm) {
  // "--threads=4" used to be silently skipped (the scan only compared
  // whole arguments), so the fallback was returned without a word.
  Argv args({"--threads=4", "--repeat=12"});
  EXPECT_EQ(flag_value(args.argc(), args.argv(), "--threads", 2), 4);
  EXPECT_EQ(flag_value(args.argc(), args.argv(), "--repeat", 1), 12);
  EXPECT_EQ(positive_flag_value(args.argc(), args.argv(), "--threads", 2), 4);
}

TEST(Cli, FlagValueEqualsFormDoesNotMatchPrefixFlags) {
  // "--threads-per-core=4" is a different flag, not "--threads".
  Argv args({"--threads-per-core=4"});
  EXPECT_EQ(flag_value(args.argc(), args.argv(), "--threads", 2), 2);
}

TEST(Cli, FlagValueRejectsMissingAndMalformedValues) {
  Argv missing({"--threads"});
  EXPECT_THROW(flag_value(missing.argc(), missing.argv(), "--threads", 1),
               CheckError);
  Argv malformed({"--threads", "four"});
  EXPECT_THROW(flag_value(malformed.argc(), malformed.argv(), "--threads", 1),
               CheckError);
  for (const char* garbage : {"4x", "4abc"}) {
    Argv trailing({"--threads", garbage});
    try {
      flag_value(trailing.argc(), trailing.argv(), "--threads", 1);
      FAIL() << "trailing garbage '" << garbage << "' must throw";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--threads"), std::string::npos) << what;
      EXPECT_NE(what.find(garbage), std::string::npos) << what;
    }
    Argv equals_trailing({std::string("--threads=") + garbage});
    EXPECT_THROW(flag_value(equals_trailing.argc(), equals_trailing.argv(),
                            "--threads", 1),
                 CheckError);
  }
}

TEST(Cli, FlagValueRejectsEmptyEqualsValue) {
  Argv args({"--threads="});
  try {
    flag_value(args.argc(), args.argv(), "--threads", 1);
    FAIL() << "--threads= must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--threads"), std::string::npos) << what;
    EXPECT_NE(what.find("requires a value"), std::string::npos) << what;
  }
}

TEST(Cli, FlagValueRejectsOutOfRangeValues) {
  // 99999999999 does not fit in int; from_chars reports
  // result_out_of_range, which must surface as a CheckError naming the
  // flag, not wrap around or fall back.
  for (const char* huge : {"99999999999", "-99999999999"}) {
    Argv space({"--threads", huge});
    try {
      flag_value(space.argc(), space.argv(), "--threads", 1);
      FAIL() << huge << " must throw";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--threads"), std::string::npos) << what;
      EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    }
    Argv equals({std::string("--threads=") + huge});
    EXPECT_THROW(flag_value(equals.argc(), equals.argv(), "--threads", 1),
                 CheckError);
  }
}

TEST(Cli, PositiveFlagValueAcceptsPositiveCounts) {
  Argv args({"--threads", "7"});
  EXPECT_EQ(positive_flag_value(args.argc(), args.argv(), "--threads", 2), 7);
  EXPECT_EQ(positive_flag_value(args.argc(), args.argv(), "--images", 8), 8);
}

TEST(Cli, PositiveFlagValueRejectsZeroAndNegative) {
  Argv zero({"--threads", "0"});
  try {
    positive_flag_value(zero.argc(), zero.argv(), "--threads", 4);
    FAIL() << "--threads 0 must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--threads"), std::string::npos) << what;
    EXPECT_NE(what.find("must be >= 1"), std::string::npos) << what;
  }
  Argv negative({"--threads", "-3"});
  EXPECT_THROW(
      positive_flag_value(negative.argc(), negative.argv(), "--threads", 4),
      CheckError);
}

TEST(Cli, FlagStringValueParsesAndFallsBack) {
  Argv args({"--out", "model.bkcm", "--tiny"});
  EXPECT_EQ(flag_string_value(args.argc(), args.argv(), "--out", "fallback"),
            "model.bkcm");
  EXPECT_EQ(flag_string_value(args.argc(), args.argv(), "--file", "fallback"),
            "fallback");
}

TEST(Cli, FlagStringValueTakesTheFirstOccurrence) {
  Argv args({"--out", "first.bkcm", "--out", "second.bkcm"});
  EXPECT_EQ(flag_string_value(args.argc(), args.argv(), "--out", "fallback"),
            "first.bkcm");
}

TEST(Cli, FlagStringValueParsesEqualsForm) {
  Argv args({"--out=model.bkcm"});
  EXPECT_EQ(flag_string_value(args.argc(), args.argv(), "--out", "fallback"),
            "model.bkcm");
  Argv empty({"--out="});
  EXPECT_THROW(flag_string_value(empty.argc(), empty.argv(), "--out", "x"),
               CheckError);
  // An "=" value may contain "=" itself (only the first one splits).
  Argv nested({"--out=a=b.bkcm"});
  EXPECT_EQ(flag_string_value(nested.argc(), nested.argv(), "--out", "x"),
            "a=b.bkcm");
}

TEST(Cli, FlagStringValueRejectsMissingValue) {
  Argv missing({"--tiny", "--out"});
  try {
    flag_string_value(missing.argc(), missing.argv(), "--out", "fallback");
    FAIL() << "--out as the last argument must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--out"), std::string::npos) << what;
    EXPECT_NE(what.find("requires a value"), std::string::npos) << what;
  }
}

TEST(Cli, FlagStringValueRejectsFlagLikeValue) {
  // "--out --tiny" is a forgotten path, not a file named "--tiny".
  Argv args({"--out", "--tiny"});
  try {
    flag_string_value(args.argc(), args.argv(), "--out", "fallback");
    FAIL() << "a flag-like value must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--tiny"), std::string::npos)
        << e.what();
  }
  // A single leading dash is still a legal value (e.g. "-" for stdin).
  Argv dash({"--out", "-"});
  EXPECT_EQ(flag_string_value(dash.argc(), dash.argv(), "--out", "x"), "-");
}

TEST(Cli, CheckKnownFlagsRejectsAnUnlistedFlagByName) {
  Argv good({"compress", "--tiny", "--threads=4", "--out", "m.bkcm"});
  EXPECT_NO_THROW(check_known_flags(good.argc(), good.argv(),
                                    {"--tiny", "--threads", "--out"}));
  Argv typo({"compress", "--tiny", "--no-clusterin"});
  try {
    check_known_flags(typo.argc(), typo.argv(),
                      {"--tiny", "--no-clustering"});
    FAIL() << "a misspelt flag must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag '--no-clusterin'"),
              std::string::npos)
        << e.what();
  }
  // The "=" form is matched on its name, so a value cannot smuggle a
  // known flag's spelling past the check.
  Argv equals({"--seed=--tiny"});
  EXPECT_THROW(check_known_flags(equals.argc(), equals.argv(), {"--tiny"}),
               CheckError);
}

TEST(Cli, ParseIntegerTakesTheWholeTextOrThrowsNamingIt) {
  // Positional counts ("hwsim_demo 32 7") go through this parser: a
  // prefix ("32abc") or an empty text is an error, never a silent 32
  // or 0 as std::atoll gives.
  EXPECT_EQ(parse_integer<std::int64_t>("channels", "32"), 32);
  EXPECT_EQ(parse_integer<std::int64_t>("channels", "99999999999"),
            99999999999);
  for (const char* bad : {"32abc", "32x", "", " 32", "abc"}) {
    try {
      parse_integer<std::int64_t>("channels", bad);
      FAIL() << "'" << bad << "' must throw";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("channels: malformed integer"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_integer<int>("count", "99999999999"), CheckError);
}

TEST(Cli, PositiveFlagValueValidatesTheFallbackToo) {
  // A bad default is a caller bug, not something to silently pass into
  // parallel_for when the user omits the flag.
  Argv args({"--tiny"});
  EXPECT_THROW(positive_flag_value(args.argc(), args.argv(), "--threads", 0),
               CheckError);
}

}  // namespace
}  // namespace bkc
