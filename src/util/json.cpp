#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace bkc::json {

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double v, NonFinitePolicy policy) {
  if (!std::isfinite(v)) {
    check(policy == NonFinitePolicy::kNull,
          "json: non-finite number (", v, ") under the kCheck policy");
    return "null";
  }
  // Shortest round-trip form: locale-independent, and never fewer
  // correct digits than max_digits10 needs.
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  check(ec == std::errc(), "json: number formatting failed");
  return std::string(buf, ptr);
}

Writer::Writer(NonFinitePolicy policy) : policy_(policy) {}

void Writer::indent() {
  out_.push_back('\n');
  out_.append(stack_.size() * 2, ' ');
}

void Writer::begin_value() {
  check(!done_, "json::Writer: document already complete");
  if (stack_.empty()) {
    check(!have_key_, "json::Writer: dangling key");  // unreachable
  } else if (stack_.back() == Frame::kObject) {
    check(have_key_, "json::Writer: object member needs key() first");
    have_key_ = false;
    return;  // key() already wrote the separator and indent
  } else {
    check(!have_key_, "json::Writer: key() inside an array");
    if (!first_in_frame_) out_.push_back(',');
    indent();
  }
  first_in_frame_ = false;
}

Writer& Writer::key(std::string_view name) {
  check(!done_, "json::Writer: document already complete");
  check(!stack_.empty() && stack_.back() == Frame::kObject,
        "json::Writer: key() outside an object");
  check(!have_key_, "json::Writer: key() twice without a value");
  if (!first_in_frame_) out_.push_back(',');
  indent();
  out_ += quoted(name);
  out_ += ": ";
  have_key_ = true;
  first_in_frame_ = false;
  return *this;
}

void Writer::open(Frame frame, char bracket) {
  begin_value();
  out_.push_back(bracket);
  stack_.push_back(frame);
  first_in_frame_ = true;
}

void Writer::close(Frame frame, char bracket) {
  check(!stack_.empty() && stack_.back() == frame,
        "json::Writer: mismatched container close");
  check(!have_key_, "json::Writer: key without value at container close");
  const bool empty = first_in_frame_;
  stack_.pop_back();
  if (!empty) indent();
  out_.push_back(bracket);
  first_in_frame_ = false;
  if (stack_.empty()) done_ = true;
}

Writer& Writer::begin_object() {
  open(Frame::kObject, '{');
  return *this;
}

Writer& Writer::end_object() {
  close(Frame::kObject, '}');
  return *this;
}

Writer& Writer::begin_array() {
  open(Frame::kArray, '[');
  return *this;
}

Writer& Writer::end_array() {
  close(Frame::kArray, ']');
  return *this;
}

Writer& Writer::value(std::string_view text) {
  begin_value();
  out_ += quoted(text);
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(const char* text) {
  return value(std::string_view(text));
}

Writer& Writer::value(double v) {
  begin_value();
  out_ += number(v, policy_);
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  begin_value();
  out_ += std::to_string(v);
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  begin_value();
  out_ += std::to_string(v);
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(int v) { return value(static_cast<std::int64_t>(v)); }

Writer& Writer::value(bool v) {
  begin_value();
  out_ += v ? "true" : "false";
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::null() {
  begin_value();
  out_ += "null";
  if (stack_.empty()) done_ = true;
  return *this;
}

std::string Writer::str() const {
  check(done_ && stack_.empty(),
        "json::Writer: document incomplete (open containers or no value)");
  return out_ + "\n";
}

}  // namespace bkc::json
