// Pull cursor over one JSON text, shared by the serving layer's parsers: the
// JSONL wire protocol (protocol.cpp), the tenant manifest loader
// (tenant.cpp), and the shed path's id peek (net_server.cpp).
//
// No DOM: callers walk the text value by value and copy out only the fields
// they know, so a request line parses without building a node per value.
// Just enough JSON for flat request/config objects: strings, numbers,
// booleans, null, arrays, nested objects. Deterministic errors (the first
// one sticks, as a one-line reason), and hardened against hostile input:
// nesting is depth-capped (a '[[[[…' bomb must not blow the server's stack)
// and numbers never reach an undefined cast.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ftbfs {

class JsonCursor {
 public:
  // The next value's kind, read off its first byte; kEnd when only
  // whitespace is left. A kBool/kNull/kNumber may still be malformed.
  enum class Kind { kEnd, kObject, kArray, kString, kBool, kNull, kNumber };

  struct Number {
    double value = 0.0;
    // Set when the value is an integer in [0, 2^64). A digit-only token is
    // read exactly; any other spelling strtod accepts ("1e2", "1.0", "-0",
    // "0x1") counts when its double is integral and in range.
    std::optional<std::uint64_t> uint;
  };

  // `text` must outlive the cursor.
  explicit JsonCursor(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  [[nodiscard]] Kind peek();

  // Every reader below consumes one value and returns false on a syntax
  // error, which error() then names.
  bool skip();
  // The view lives until the next string() call when the string held an
  // escape (it is decoded into the cursor), otherwise as long as the text.
  bool string(std::string_view& out);
  bool number(Number& out);
  bool literal(bool& out);  // true/false; null reads as false
  // Any value: `out` is set when it is a number with an integer value in
  // [0, 2^64) (see Number::uint), and left empty for anything else.
  bool uint_value(std::optional<std::uint64_t>& out);
  // `member(std::string_view key)` must consume the member's value;
  // `element()` must consume one element. Both return false on a syntax
  // error. The key view follows string()'s lifetime rule.
  template <typename Fn>
  bool object(Fn&& member);
  template <typename Fn>
  bool array(Fn&& element);
  // After the top-level value: only whitespace may follow.
  bool finish();

  [[nodiscard]] const std::string& error() const { return err_; }

 private:
  static constexpr int kMaxDepth = 32;

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || (*p_ >= '\t' && *p_ <= '\r'))) ++p_;
  }
  bool fail(std::string_view why);
  bool expect(char c);
  bool enter(char open);
  bool next_or_close(char close, bool& more);
  bool decode_string(std::string_view& out);
  bool number_slow(Number& out);

  const char* p_;
  const char* end_;
  int depth_ = 0;
  std::string err_;
  std::string decoded_;  // strings that held escapes
};

template <typename Fn>
bool JsonCursor::object(Fn&& member) {
  if (!enter('{')) return false;
  skip_ws();
  bool more = p_ == end_ || *p_ != '}';
  if (!more) ++p_;
  while (more) {
    std::string_view key;
    if (!string(key) || !expect(':') || !member(key) ||
        !next_or_close('}', more)) {
      return false;
    }
  }
  --depth_;
  return true;
}

template <typename Fn>
bool JsonCursor::array(Fn&& element) {
  if (!enter('[')) return false;
  skip_ws();
  bool more = p_ == end_ || *p_ != ']';
  if (!more) ++p_;
  while (more) {
    if (!element() || !next_or_close(']', more)) return false;
  }
  --depth_;
  return true;
}

// Appends `s` JSON-string-escaped into `out`. Control bytes below 0x20 are
// emitted as \u00XX so hostile input echoed back (error messages, warnings)
// can never produce an unparseable response line; bytes >= 0x80 pass through
// untouched (the wire treats strings as bytes).
void json_escape_into(std::string& out, std::string_view s);

}  // namespace ftbfs
