// Minimal JSON support for the observability layer: string quoting and
// number formatting for the writers (trace export, metric export, bench
// reports) and a small recursive-descent parser used to validate that the
// exported documents are well-formed (tests, tooling).  Deliberately tiny —
// no external dependency, no DOM mutation API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rftc::obs::json {

/// JSON string literal with escaping, including the quotes.
std::string quote(std::string_view s);

/// Shortest round-trip-safe representation of a double ("null" for
/// non-finite values, which raw JSON cannot carry).
std::string number(double v);

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// First member with the given key, nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parses one JSON document; throws std::runtime_error with the byte offset
/// on malformed input.  Trailing non-whitespace is an error.
Value parse(std::string_view text);

/// `v` as an unsigned integer no larger than `max`; nullopt unless `v` is a
/// number that is integral and in [0, max].  Readers convert JSON numbers
/// through this one check instead of a static_cast, which would read 1.5 as
/// 1 and is undefined for negatives and values of 2^64 and above.
std::optional<std::uint64_t> as_uint(const Value& v,
                                     std::uint64_t max = UINT64_MAX);

}  // namespace rftc::obs::json
