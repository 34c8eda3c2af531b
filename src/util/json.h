#pragma once
// Minimal strict-JSON writer for the bench report emitters.
//
// Every bench used to hand-roll its JSON with ostringstream, which has
// three classic failure modes this header removes in one place:
//   * strings were pasted between quotes unescaped — a codec or layer
//     name containing `"` or `\` produced an unparseable file,
//   * doubles went through default ostream formatting — locale
//     dependent (a `,` decimal point breaks JSON) and truncated to 6
//     significant digits,
//   * comma/bracket bookkeeping was duplicated per emitter.
//
// The Writer produces strict JSON (RFC 8259): strings are escaped,
// doubles print locale-independently via std::to_chars with shortest
// round-trip precision (every digit of max_digits10 that matters), and
// commas/nesting are managed by the writer. JSON has no NaN/Infinity;
// what a non-finite double becomes is an explicit policy — CheckError
// (default: the bench math should never produce one) or `null` (for
// emitters where a missing measurement is representable). Misuse of
// the writer itself (value without a key inside an object, unclosed
// containers at str()) is a CheckError, not silently bad output.
//
// tests/test_json.cpp pins escaping, number formatting, policy and the
// misuse checks; CI parses every emitted BENCH_*.json with a strict
// parser.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bkc::json {

/// What to emit for a non-finite double. JSON cannot represent
/// NaN/Infinity, so there is no "pass through" option.
enum class NonFinitePolicy {
  kCheck,  ///< CheckError naming the offending value
  kNull,   ///< emit `null`
};

/// `s` escaped and double-quoted as a strict JSON string literal
/// (`"` `\` and control characters escaped; UTF-8 passes through).
std::string quoted(std::string_view s);

/// `v` as a strict JSON number: std::to_chars shortest round-trip form
/// — locale-independent, and parsing it back yields exactly `v`.
/// Non-finite values follow `policy`.
std::string number(double v, NonFinitePolicy policy = NonFinitePolicy::kCheck);

/// Incremental document writer with automatic comma/indent handling.
///
///   json::Writer w;
///   w.begin_object();
///   w.key("bench").value("serve_load");
///   w.key("points").begin_array();
///   ... w.begin_object(); w.key("id").value(7); w.end_object(); ...
///   w.end_array();
///   w.end_object();
///   file << w.str();
///
/// The output is pretty-printed (2-space indent, one key or element
/// per line) so the checked-in BENCH_*.json files stay diffable.
class Writer {
 public:
  explicit Writer(NonFinitePolicy policy = NonFinitePolicy::kCheck);

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Object member key; must be directly followed by a value or
  /// container. CheckError outside an object or twice in a row.
  Writer& key(std::string_view name);

  Writer& value(std::string_view text);
  Writer& value(const char* text);  ///< disambiguates from `bool`
  Writer& value(double number);
  Writer& value(std::int64_t number);
  Writer& value(std::uint64_t number);
  Writer& value(int number);
  Writer& value(bool boolean);
  Writer& null();

  /// The finished document. CheckError when containers are still open
  /// or no value was written.
  std::string str() const;

 private:
  enum class Frame { kObject, kArray };

  void begin_value();  ///< comma/indent/key bookkeeping before a value
  void open(Frame frame, char bracket);
  void close(Frame frame, char bracket);
  void indent();

  NonFinitePolicy policy_;
  std::string out_;
  std::vector<Frame> stack_;
  bool have_key_ = false;       ///< key() emitted, value pending
  bool first_in_frame_ = true;  ///< no element yet in the open frame
  bool done_ = false;           ///< a complete top-level value exists
};

}  // namespace bkc::json
