// Shared environment-variable parsing.
//
// Every RFTC_* knob used to hand-roll its own strtol/strtod loop, and most of
// them silently accepted trailing junk ("RFTC_THREADS=4x" ran with 4 threads)
// or clipped overflowing values.  A knob that half-parses is worse than one
// that falls back: the run silently diverges from what the user asked for.
// These helpers are strict — a value is either a single complete token
// (surrounding whitespace tolerated) that parses without overflow, or the
// knob falls back to its default.
//
// Header-only on purpose: rftc::obs links below rftc_util, so a compiled
// helper in either library would be unreachable from the other side.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace rftc::env {

namespace detail {

inline std::string_view trim(std::string_view text) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

/// Accumulates digits of `text` in base 10 or 16 with an overflow guard.
/// `text` must already be trimmed and prefix-stripped.
inline std::optional<std::uint64_t> parse_digits(std::string_view text,
                                                 unsigned base) {
  if (text.empty()) return std::nullopt;
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : text) {
    unsigned digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<unsigned>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = static_cast<unsigned>(c - 'a') + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = static_cast<unsigned>(c - 'A') + 10;
    } else {
      return std::nullopt;  // trailing junk
    }
    if (digit >= base) return std::nullopt;
    if (value > (max - digit) / base) return std::nullopt;  // overflow
    value = value * base + digit;
  }
  return value;
}

}  // namespace detail

/// Unsigned integer, base 10 or "0x"-prefixed hex (seeds are usually quoted
/// in hex in reproducer lines).  Rejects empty input, signs, trailing junk
/// and overflow.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  text = detail::trim(text);
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X'))
    return detail::parse_digits(text.substr(2), 16);
  return detail::parse_digits(text, 10);
}

/// Signed base-10 integer (optional leading sign).  Same strictness.
inline std::optional<std::int64_t> parse_i64(std::string_view text) {
  text = detail::trim(text);
  bool negative = false;
  if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    negative = text.front() == '-';
    text.remove_prefix(1);
  }
  const auto magnitude = detail::parse_digits(text, 10);
  if (!magnitude) return std::nullopt;
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (negative ? 1u : 0u);
  if (*magnitude > limit) return std::nullopt;
  if (negative) return -static_cast<std::int64_t>(*magnitude - 1) - 1;
  return static_cast<std::int64_t>(*magnitude);
}

/// Floating-point value.  strtod underneath, but the whole (trimmed) token
/// must be consumed and the result must be finite — "0.1s" and "1e999" both
/// fall back rather than half-apply.
inline std::optional<double> parse_real(std::string_view text) {
  text = detail::trim(text);
  if (text.empty()) return std::nullopt;
  const std::string buf(text);  // strtod needs NUL termination
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  if (value > std::numeric_limits<double>::max() ||
      value < std::numeric_limits<double>::lowest() || value != value)
    return std::nullopt;
  return value;
}

/// getenv wrappers: unset, empty, malformed, overflowing or (for read_count)
/// zero values all yield the fallback.

inline std::uint64_t read_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return parse_u64(v).value_or(fallback);
}

inline std::int64_t read_i64(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return parse_i64(v).value_or(fallback);
}

inline double read_real(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return parse_real(v).value_or(fallback);
}

/// Positive count knob (thread counts, batch sizes, case counts, chunk
/// geometries): zero is never a meaningful value, so it falls back too.
inline std::size_t read_count(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse_u64(*v == '\0' ? std::string_view{} : v);
  if (!parsed || *parsed == 0 ||
      *parsed > std::numeric_limits<std::size_t>::max())
    return fallback;
  return static_cast<std::size_t>(*parsed);
}

/// Traces per batched-CPA tile when RFTC_CPA_BATCH is unset.  Defined here
/// rather than in analysis/cpa.hpp because rftc::obs stamps it into every
/// provenance record and links below rftc_analysis.
inline constexpr std::size_t kCpaBatchDefault = 1024;

/// RFTC_CPA_BATCH=<n>: the batched CPA engine's tile size.
inline std::size_t cpa_batch() {
  return read_count("RFTC_CPA_BATCH", kCpaBatchDefault);
}

}  // namespace rftc::env
