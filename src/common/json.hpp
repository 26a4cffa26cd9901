// The one JSON codec every reader and writer in the repository shares: a
// strict RFC 8259 reader that builds a small DOM, and the two writer
// primitives (string escaping and round-trippable doubles).
//
// Reader contract:
//   * The input is exactly one JSON text; only RFC 8259 whitespace may
//     surround it. `nan`, `inf`, hex numbers, leading zeros, single quotes,
//     comments and trailing commas are syntax errors.
//   * Integer literals (no fraction, no exponent) stay exact: non-negative
//     ones as uint64, negative ones as int64. A literal beyond 64 bits, -0,
//     and every other number is a double; a number whose magnitude a
//     double cannot hold (1e400, 1e-400) is rejected, so every double is
//     finite.
//   * Strings decode every standard escape, including \uXXXX surrogate
//     pairs (to UTF-8). Raw control bytes and unpaired surrogates are
//     rejected; other bytes pass through unvalidated.
//   * Object keys are unique; a repeated key rejects the document.
//   * Arrays and objects nest at most kMaxDepth deep, so hostile input
//     cannot exhaust the stack.
//   * Failures come back as an Error value; malformed input never throws.
//
// Std-only (no engine headers): tools/bench_diff links it standalone.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace aacc::json {

/// Deepest array/object nesting the reader accepts. Every document the
/// repository writes nests at most a handful of levels.
inline constexpr int kMaxDepth = 64;

/// One parsed JSON value.
struct Value {
  using Array = std::vector<Value>;
  /// Members in document order; keys are unique.
  using Object = std::vector<std::pair<std::string, Value>>;

  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      data;

  [[nodiscard]] const bool* boolean() const { return std::get_if<bool>(&data); }
  [[nodiscard]] const std::string* string() const {
    return std::get_if<std::string>(&data);
  }
  [[nodiscard]] const Array* array() const { return std::get_if<Array>(&data); }
  [[nodiscard]] const Object* object() const {
    return std::get_if<Object>(&data);
  }

  /// Member `key` of an object; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Any number as a double (integers beyond 2^53 round); nullopt for
  /// every other kind.
  [[nodiscard]] std::optional<double> number() const;

  /// An integer literal that T holds exactly. Fractions, exponents,
  /// negatives for unsigned T and out-of-range magnitudes give nullopt.
  template <typename T>
  [[nodiscard]] std::optional<T> integer() const {
    if (const auto* u = std::get_if<std::uint64_t>(&data)) {
      if (std::in_range<T>(*u)) return static_cast<T>(*u);
    } else if (const auto* i = std::get_if<std::int64_t>(&data)) {
      if (std::in_range<T>(*i)) return static_cast<T>(*i);
    }
    return std::nullopt;
  }
};

/// Reads member `key` of object `obj` into `out`: an integer literal T
/// holds exactly for integral T, any number for double, a string for
/// std::string. An absent member leaves `out` untouched and returns true;
/// a member of another kind or out of T's range returns false.
template <typename T>
bool read_field(const Value& obj, std::string_view key, T& out) {
  const Value* v = obj.find(key);
  if (v == nullptr) return true;
  std::optional<T> x;
  if constexpr (std::is_same_v<T, double>) {
    x = v->number();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (v->string() != nullptr) x = *v->string();
  } else {
    x = v->integer<T>();
  }
  if (x) out = std::move(*x);
  return x.has_value();
}

/// Why a document was rejected.
enum class Error : std::uint8_t {
  kNone = 0,
  kSyntax,        ///< not JSON: bad token, truncation or trailing content
  kTooDeep,       ///< arrays/objects nested deeper than kMaxDepth
  kBadNumber,     ///< a number no double can hold
  kBadString,     ///< raw control byte, unknown escape, unpaired surrogate
  kDuplicateKey,  ///< an object repeats a key
};

/// Parses `text` into `out`. Returns Error::kNone on success; on failure
/// `out` holds no meaningful value.
[[nodiscard]] Error parse(std::string_view text, Value& out);

/// A short human-readable name for `e` ("syntax error", ...).
[[nodiscard]] const char* describe(Error e);

// ------------------------------------------------------------------ writer
// Stream manipulators: `os << json::Quoted{name} << ':' << json::Double{x}`.

/// A JSON string literal: `"` and `\` are backslash-escaped, bytes below
/// 0x20 become \u00XX, every other byte passes through.
struct Quoted {
  std::string_view s;
};
std::ostream& operator<<(std::ostream& os, Quoted q);

/// A double printed with %.17g, which the reader maps back to the same
/// bits. Callers pass finite values: %.17g spells non-finite ones as
/// nan/inf, which are not JSON.
struct Double {
  double v;
};
std::ostream& operator<<(std::ostream& os, Double d);

}  // namespace aacc::json
