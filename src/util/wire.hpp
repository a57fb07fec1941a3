// Byte-level framing helpers for the accumulator snapshots the distributed
// campaign protocol ships between workers and the coordinator
// (CpaEngine::serialize / WelchTTest::serialize).
//
// Layout discipline (matching the .rtst store): scalar header fields are
// explicit little-endian; bulk numeric arrays are raw host bytes (the store
// already writes float payloads that way, so the whole pipeline shares one
// endianness assumption).  Doubles and int64s round-trip bit-exactly —
// that is the whole point: a deserialized accumulator must merge and report
// bit-identically to the in-process one.  Every blob ends with a CRC-32 of
// everything before it; Reader::check_crc / the bounds checks turn a
// truncated or corrupted payload into std::runtime_error instead of a
// silently garbage merge.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/crc32.hpp"

namespace rftc::wire {

/// 8-byte magic prefix (the NUL of the string literal is not written).
inline void put_magic(std::vector<unsigned char>& out, const char (&magic)[9]) {
  out.resize(out.size() + 8);
  std::memcpy(out.data() + out.size() - 8, magic, 8);
}

inline void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

inline void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

/// Raw host-byte dump of a trivially-copyable array (doubles, int64s).
template <typename T>
void put_array(std::vector<unsigned char>& out, const T* data,
               std::size_t count) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  out.insert(out.end(), p, p + count * sizeof(T));
}

/// Appends the CRC-32 of everything currently in `out`.
inline void seal(std::vector<unsigned char>& out) {
  put_u32(out, util::crc32(out.data(), out.size()));
}

/// Strict sequential reader over a sealed blob.  Every accessor
/// bounds-checks and throws std::runtime_error on truncation; check_crc()
/// validates the trailing CRC-32 before any field is trusted.
class Reader {
 public:
  explicit Reader(std::span<const unsigned char> blob, std::string what)
      : blob_(blob), what_(std::move(what)) {}

  /// Validates the trailing CRC-32 and excludes it from the readable body.
  /// Call first: a blob that fails here must not be parsed at all.
  void check_crc() {
    if (blob_.size() < 4) fail("truncated (shorter than its CRC)");
    const std::size_t body = blob_.size() - 4;
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
      stored |= std::uint32_t{blob_[body + static_cast<std::size_t>(i)]}
                << (8 * i);
    if (util::crc32(blob_.data(), body) != stored)
      fail("CRC mismatch (corrupt payload)");
    blob_ = blob_.subspan(0, body);
  }

  void expect_magic(const char (&magic)[9]) {
    unsigned char got[8];
    bytes(got, 8);
    if (std::memcmp(got, magic, 8) != 0) fail("bad magic");
  }

  std::uint32_t u32() {
    unsigned char b[4];
    bytes(b, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t{b[static_cast<std::size_t>(i)]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    unsigned char b[8];
    bytes(b, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t{b[static_cast<std::size_t>(i)]} << (8 * i);
    return v;
  }

  template <typename T>
  void array(T* data, std::size_t count) {
    bytes(reinterpret_cast<unsigned char*>(data), count * sizeof(T));
  }

  /// Adds the next `count` values elementwise into `into` — array()'s
  /// merge-side twin, folding a snapshot without a second copy of it.
  template <typename T>
  void add_array(T* into, std::size_t count) {
    const unsigned char* src = take(count * sizeof(T));
    for (std::size_t i = 0; i < count; ++i) {
      T v{};
      std::memcpy(&v, src + i * sizeof(T), sizeof(T));
      into[i] += v;
    }
  }

  /// Bytes not yet read.
  std::size_t remaining() const { return blob_.size(); }

  /// Everything must be consumed: trailing bytes mean the geometry fields
  /// lied about the array sizes.
  void expect_end() const {
    if (!blob_.empty()) fail("trailing bytes after the declared arrays");
  }

 private:
  const unsigned char* take(std::size_t n) {
    if (blob_.size() < n) fail("truncated");
    const unsigned char* p = blob_.data();
    blob_ = blob_.subspan(n);
    return p;
  }

  void bytes(unsigned char* dst, std::size_t n) {
    std::memcpy(dst, take(n), n);
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(what_ + ": " + why);
  }

  std::span<const unsigned char> blob_;
  std::string what_;
};

}  // namespace rftc::wire
