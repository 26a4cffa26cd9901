#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace aacc::json {

const Value* Value::find(std::string_view key) const {
  const Object* members = object();
  if (members == nullptr) return nullptr;
  for (const auto& [k, v] : *members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> Value::number() const {
  if (const auto* d = std::get_if<double>(&data)) return *d;
  if (const auto* u = std::get_if<std::uint64_t>(&data)) {
    return static_cast<double>(*u);
  }
  if (const auto* i = std::get_if<std::int64_t>(&data)) {
    return static_cast<double>(*i);
  }
  return std::nullopt;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Recursive descent over [p_, end_). Recursion depth is bounded by
/// kMaxDepth: a container opened deeper than that fails before recursing.
class Parser {
 public:
  explicit Parser(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  Error document(Value& out) {
    if (!value(out, 0)) return err_;
    ws();
    return p_ == end_ ? Error::kNone : Error::kSyntax;
  }

 private:
  const char* p_;
  const char* end_;
  Error err_ = Error::kSyntax;

  bool fail(Error e) {
    err_ = e;
    return false;
  }

  void ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool eat(char c) {
    ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (static_cast<std::size_t>(end_ - p_) < word.size() ||
        std::string_view(p_, word.size()) != word) {
      return fail(Error::kSyntax);
    }
    p_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    ws();
    if (p_ == end_) return fail(Error::kSyntax);
    switch (*p_) {
      case '{':
        return object(out, depth + 1);
      case '[':
        return array(out, depth + 1);
      case '"': {
        std::string s;
        if (!string(s)) return false;
        out.data = std::move(s);
        return true;
      }
      case 't':
        out.data = true;
        return literal("true");
      case 'f':
        out.data = false;
        return literal("false");
      case 'n':
        out.data = nullptr;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool array(Value& out, int depth) {
    if (depth > kMaxDepth) return fail(Error::kTooDeep);
    ++p_;  // '['
    Value::Array items;
    if (!eat(']')) {
      do {
        items.emplace_back();
        if (!value(items.back(), depth)) return false;
      } while (eat(','));
      if (!eat(']')) return fail(Error::kSyntax);
    }
    out.data = std::move(items);
    return true;
  }

  bool object(Value& out, int depth) {
    if (depth > kMaxDepth) return fail(Error::kTooDeep);
    ++p_;  // '{'
    Value::Object members;
    if (!eat('}')) {
      do {
        members.emplace_back();
        ws();
        if (p_ == end_ || *p_ != '"') return fail(Error::kSyntax);
        if (!string(members.back().first)) return false;
        if (!eat(':')) return fail(Error::kSyntax);
        if (!value(members.back().second, depth)) return false;
      } while (eat(','));
      if (!eat('}')) return fail(Error::kSyntax);
    }
    if (members.size() > 1) {
      std::vector<std::string_view> keys;
      keys.reserve(members.size());
      for (const auto& m : members) keys.emplace_back(m.first);
      std::sort(keys.begin(), keys.end());
      if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
        return fail(Error::kDuplicateKey);
      }
    }
    out.data = std::move(members);
    return true;
  }

  bool hex4(std::uint32_t& out) {
    if (end_ - p_ < 4) return false;
    const auto r = std::from_chars(p_, p_ + 4, out, 16);
    const bool ok = r.ec == std::errc{} && r.ptr == p_ + 4;
    p_ += 4;
    return ok;
  }

  static void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
      return;
    }
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    // Lead byte 110xxxxx / 1110xxxx / 11110xxx, then 10xxxxxx per tail byte.
    s.push_back(static_cast<char>((0xFF00 >> (tail + 1)) | cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      s.push_back(static_cast<char>(0x80 | (cp >> (6 * i) & 0x3F)));
    }
  }

  /// \uXXXX after the backslash and 'u': a BMP code point or a
  /// high/low surrogate pair.
  bool unicode_escape(std::string& out) {
    std::uint32_t cp = 0;
    if (!hex4(cp) || (cp >= 0xDC00 && cp <= 0xDFFF)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      std::uint32_t lo = 0;
      if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') return false;
      p_ += 2;
      if (!hex4(lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  bool string(std::string& out) {
    ++p_;  // opening quote
    for (;;) {
      if (p_ == end_) return fail(Error::kSyntax);
      const char c = *p_++;
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail(Error::kBadString);
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ == end_) return fail(Error::kSyntax);
      // The two-character escapes map through this pair of tables.
      constexpr std::string_view kEscaped = "\"\\/bfnrt";
      constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      const char e = *p_++;
      if (const auto k = kEscaped.find(e); k != std::string_view::npos) {
        out.push_back(kDecoded[k]);
      } else if (e != 'u' || !unicode_escape(out)) {
        return fail(Error::kBadString);
      }
    }
  }

  bool digits() {
    if (p_ == end_ || !is_digit(*p_)) return false;
    while (p_ < end_ && is_digit(*p_)) ++p_;
    return true;
  }

  bool number(Value& out) {
    const char* start = p_;
    const bool negative = *p_ == '-';
    if (negative) ++p_;
    const char* int_begin = p_;
    if (p_ < end_ && *p_ == '0') {
      ++p_;
    } else if (!digits()) {
      return fail(Error::kSyntax);
    }
    const char* int_end = p_;
    bool integral = true;
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      if (!digits()) return fail(Error::kSyntax);
      integral = false;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!digits()) return fail(Error::kSyntax);
      integral = false;
    }
    if (integral) {
      std::uint64_t mag = 0;
      const auto r = std::from_chars(int_begin, int_end, mag);
      if (r.ec == std::errc{}) {
        if (!negative) {
          out.data = mag;
          return true;
        }
        if (mag != 0 && mag <= std::uint64_t{1} << 63) {
          // Modular conversion (well-defined since C++20) yields -mag.
          out.data = static_cast<std::int64_t>(0 - mag);
          return true;
        }
      }
      // -0 (kept as the double -0.0) and magnitudes beyond 64 bits fall
      // through to a double.
    }
    double d = 0;
    const auto r = std::from_chars(start, p_, d);
    if (r.ec != std::errc{} || r.ptr != p_ || !std::isfinite(d)) {
      return fail(Error::kBadNumber);
    }
    out.data = d;
    return true;
  }
};

}  // namespace

Error parse(std::string_view text, Value& out) {
  return Parser(text).document(out);
}

const char* describe(Error e) {
  switch (e) {
    case Error::kNone: return "ok";
    case Error::kSyntax: return "syntax error";
    case Error::kTooDeep: return "nesting too deep";
    case Error::kBadNumber: return "number out of range";
    case Error::kBadString: return "bad string";
    case Error::kDuplicateKey: return "duplicate object key";
  }
  return "unknown error";
}

std::ostream& operator<<(std::ostream& os, Quoted q) {
  os << '"';
  for (const char c : q.s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  return os << '"';
}

std::ostream& operator<<(std::ostream& os, Double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d.v);
  return os << buf;
}

}  // namespace aacc::json
