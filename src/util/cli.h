#pragma once
// Minimal command-line helpers for the bench/example binaries. The
// binaries default to the paper-sized configuration; the CTest smoke
// runs pass --tiny to exercise the same code paths in milliseconds, and
// the throughput/inference binaries take --threads N to size the
// parallel fan-out.

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <string>
#include <string_view>

#include "util/check.h"

namespace bkc {

/// True when `flag` (e.g. "--tiny") appears among the arguments.
inline bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Throws CheckError naming the first "--" argument that is not in
/// `known` (compared up to any "=", so "--threads=4" is "--threads"),
/// so a misspelt flag ("--no-clusterin") fails instead of leaving the
/// run on the default it meant to change. Arguments without the "--"
/// prefix (subcommands, values) are not checked.
inline void check_known_flags(int argc, char** argv,
                              std::initializer_list<std::string_view> known) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") continue;
    const std::string_view name = arg.substr(0, arg.find('='));
    check(std::find(known.begin(), known.end(), name) != known.end(),
          "unknown flag '", name, "'");
  }
}

/// All of `text` as a base-10 integer of type T: the one integer
/// parser behind flag values and positional counts. Throws CheckError,
/// naming `what`, on empty text, trailing garbage ("32abc") or a value
/// that does not fit in T ("99999999999" for int), where std::atoi
/// would quietly return a prefix or an overflowed value.
template <typename T>
T parse_integer(std::string_view what, std::string_view text) {
  T value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  check(ec != std::errc::result_out_of_range,
        what, ": value '", text, "' is out of range");
  check(ec == std::errc() && ptr == text.data() + text.size(),
        what, ": malformed integer '", text, "'");
  return value;
}

/// Resolves both accepted value spellings — "--threads 4" and
/// "--threads=4" — against the argument at index `i` (plus its
/// successor for the space form). Returns true when argv[i] names
/// `flag`, leaving the value text in `text` and recording in
/// `used_next_arg` whether the value came from the following argument.
/// The "=" form used to be silently ignored (the scan only compared
/// whole arguments), so "--threads=4" fell back to the default without
/// a word; now both forms parse, and an empty "=" value ("--threads=")
/// is rejected by name.
inline bool flag_value_at(int argc, char** argv, int i, std::string_view flag,
                          std::string_view& text, bool& used_next_arg) {
  const std::string_view arg = argv[i];
  used_next_arg = false;
  if (arg == flag) {
    check(i + 1 < argc, flag, " requires a value");
    text = argv[i + 1];
    used_next_arg = true;
    return true;
  }
  if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    text = arg.substr(flag.size() + 1);
    check(!text.empty(), flag, " requires a value (got '", arg, "')");
    return true;
  }
  return false;
}

/// Integer value of `flag` ("--threads 4" or "--threads=4"); `fallback`
/// when the flag is absent. Throws CheckError, naming the flag, when
/// the flag is present with a missing value, trailing garbage
/// ("--threads 4abc"), or a value that does not fit in int
/// ("--threads 99999999999").
inline int flag_value(int argc, char** argv, std::string_view flag,
                      int fallback) {
  for (int i = 1; i < argc; ++i) {
    std::string_view text;
    bool used_next_arg = false;
    if (!flag_value_at(argc, argv, i, flag, text, used_next_arg)) continue;
    return parse_integer<int>(flag, text);
  }
  return fallback;
}

/// String value of `flag` ("--out model.bkcm" or "--out=model.bkcm");
/// `fallback` when the flag is absent. Throws CheckError when the flag
/// is present as the last argument (no value to take) or with an empty
/// "=" value. Path arguments in the bench/example binaries go through
/// this instead of ad-hoc argv scanning. Returns by value (like the
/// sibling helpers) so a temporary passed as `fallback` can never
/// leave the caller holding a dangling view.
inline std::string flag_string_value(int argc, char** argv,
                                     std::string_view flag,
                                     std::string_view fallback) {
  for (int i = 1; i < argc; ++i) {
    std::string_view value;
    bool used_next_arg = false;
    if (!flag_value_at(argc, argv, i, flag, value, used_next_arg)) continue;
    // In the space-separated form a value that looks like another flag
    // is a forgotten argument ("--out --tiny"), not a path called
    // "--tiny". The "=" form is explicit about attachment, so it may
    // carry any text.
    check(!used_next_arg || value.substr(0, 2) != "--",
          flag, " requires a value, got flag-like '", value, "'");
    return std::string(value);
  }
  return std::string(fallback);
}

/// flag_value for counts that must be >= 1 (thread counts, image
/// counts, repeat counts): throws CheckError when the resolved value —
/// whether it came from the command line or from `fallback` — is zero
/// or negative. parallel_for and friends have a num_threads >= 1
/// precondition, so validating here turns `--threads 0` into a clear
/// message instead of a deep internal failure.
inline int positive_flag_value(int argc, char** argv, std::string_view flag,
                               int fallback) {
  const int value = flag_value(argc, argv, flag, fallback);
  check(value >= 1, flag, ": must be >= 1, got ", value);
  return value;
}

}  // namespace bkc
