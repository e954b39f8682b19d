#include "service/json.h"

#include <charconv>
#include <cstdlib>

namespace ftbfs {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Bytes strtod may consume after the first: decimal and hex digits, signs,
// the point, exponents, and the letters and parentheses of "inf",
// "infinity" and "nan(chars)".
bool strtod_byte(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         c == '.' || c == '+' || c == '-' || c == '_' || c == '(' || c == ')';
}

}  // namespace

JsonCursor::Kind JsonCursor::peek() {
  skip_ws();
  if (p_ == end_) return Kind::kEnd;
  switch (*p_) {
    case '{':
      return Kind::kObject;
    case '[':
      return Kind::kArray;
    case '"':
      return Kind::kString;
    case 't':
    case 'f':
      return Kind::kBool;
    case 'n':
      return Kind::kNull;
    default:
      return Kind::kNumber;
  }
}

bool JsonCursor::fail(std::string_view why) {
  if (err_.empty()) err_ = why;
  return false;
}

bool JsonCursor::expect(char c) {
  skip_ws();
  if (p_ == end_ || *p_ != c) {
    return fail(std::string("expected '") + c + "'");
  }
  ++p_;
  return true;
}

// Containers recurse; a server must not let one hostile line ('[[[[…') blow
// the stack, so nesting is capped well beyond any legitimate request.
bool JsonCursor::enter(char open) {
  if (depth_ >= kMaxDepth) return fail("nesting too deep");
  ++depth_;
  return expect(open);
}

bool JsonCursor::next_or_close(char close, bool& more) {
  skip_ws();
  more = p_ != end_ && *p_ == ',';
  if (more) {
    ++p_;
    return true;
  }
  return expect(close);
}

bool JsonCursor::skip() {
  switch (peek()) {
    case Kind::kEnd:
      return fail("unexpected end of input");
    case Kind::kObject:
      return object([this](std::string_view) { return skip(); });
    case Kind::kArray:
      return array([this] { return skip(); });
    case Kind::kString: {
      std::string_view s;
      return string(s);
    }
    case Kind::kBool:
    case Kind::kNull: {
      bool b = false;
      return literal(b);
    }
    case Kind::kNumber: {
      Number n;
      return number(n);
    }
  }
  return false;
}

bool JsonCursor::string(std::string_view& out) {
  if (!expect('"')) return false;
  const char* q = p_;
  while (q != end_ && *q != '"' && *q != '\\') ++q;
  if (q != end_ && *q == '"') {
    out = std::string_view(p_, static_cast<std::size_t>(q - p_));
    p_ = q + 1;
    return true;
  }
  return decode_string(out);
}

// The string after its opening quote, with at least one escape or no closing
// quote: decoded into `decoded_`.
bool JsonCursor::decode_string(std::string_view& out) {
  decoded_.clear();
  while (p_ != end_ && *p_ != '"') {
    char c = *p_++;
    if (c == '\\') {
      if (p_ == end_) return fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u': {
          // \uXXXX, UTF-8-encoded into the output. Our own writer only emits
          // \u00XX (control bytes), but the reader accepts the full BMP so
          // round-tripping any response line through the reader works.
          if (end_ - p_ < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (is_digit(h)) {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          if (code < 0x80) {
            decoded_.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            decoded_.push_back(static_cast<char>(0xC0 | (code >> 6)));
            decoded_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            decoded_.push_back(static_cast<char>(0xE0 | (code >> 12)));
            decoded_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            decoded_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          continue;
        }
        default:
          return fail("unsupported string escape");
      }
    }
    decoded_.push_back(c);
  }
  if (p_ == end_) return fail("unterminated string");
  ++p_;  // closing quote
  out = decoded_;
  return true;
}

bool JsonCursor::number(Number& out) {
  skip_ws();
  if (p_ == end_) return fail("unexpected end of input");
  // Fast path: a digit run that strtod would not extend ("1.5", "1e2",
  // "0x1") is an integer token, read exactly.
  const char* q = p_;
  while (q != end_ && is_digit(*q)) ++q;
  const bool extended = q != end_ && (*q == '.' || *q == 'e' || *q == 'E' ||
                                      *q == 'x' || *q == 'X');
  std::uint64_t u = 0;
  if (q != p_ && !extended &&
      std::from_chars(p_, q, u).ec == std::errc()) {
    out.value = static_cast<double>(u);
    out.uint = u;
    p_ = q;
    return true;
  }
  return number_slow(out);
}

// Every other spelling, and integers at or beyond 2^64: strtod on a
// NUL-terminated copy of the bytes it could consume (the text need not be
// NUL-terminated).
bool JsonCursor::number_slow(Number& out) {
  const char* q = p_;
  while (q != end_ && strtod_byte(*q)) ++q;
  const std::string token(p_, q);
  char* after = nullptr;
  const double d = std::strtod(token.c_str(), &after);
  if (after == token.c_str()) return fail("invalid number");
  p_ += after - token.c_str();
  out.value = d;
  out.uint.reset();
  // The range guard must run BEFORE the cast: converting a double at or
  // beyond 2^64 (or NaN/inf — "1e999" parses to inf) to uint64_t is
  // undefined behavior. NaN fails the >= 0 comparison; 18446744073709551616.0
  // is exactly 2^64 in double.
  if (d >= 0.0 && d < 18446744073709551616.0) {
    const auto v = static_cast<std::uint64_t>(d);
    if (static_cast<double>(v) == d) out.uint = v;  // not fractional
  }
  return true;
}

bool JsonCursor::literal(bool& out) {
  skip_ws();
  const auto take = [&](std::string_view word) {
    if (static_cast<std::size_t>(end_ - p_) < word.size() ||
        std::string_view(p_, word.size()) != word) {
      return false;
    }
    p_ += word.size();
    return true;
  };
  out = take("true");
  if (out || take("false") || take("null")) return true;
  return fail("invalid literal");
}

bool JsonCursor::uint_value(std::optional<std::uint64_t>& out) {
  out.reset();
  if (peek() != Kind::kNumber) return skip();
  Number n;
  if (!number(n)) return false;
  out = n.uint;
  return true;
}

bool JsonCursor::finish() {
  skip_ws();
  if (p_ != end_) return fail("trailing characters after JSON value");
  return true;
}

void json_escape_into(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Raw control bytes inside a JSON string are invalid JSON; echoing
          // hostile input must not let the response line become unparseable.
          const auto b = static_cast<unsigned char>(c);
          const char esc[6] = {'\\', 'u', '0', '0', kHex[b >> 4], kHex[b & 15]};
          out.append(esc, sizeof esc);
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace ftbfs
