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
// everything before it (its *seal*); Reader::check_crc / the bounds checks
// turn a truncated or corrupted payload into std::runtime_error instead of
// a silently garbage merge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/crc32.hpp"

namespace rftc::wire {

/// Where a Writer's bytes go, in order: an in-memory blob (append_to) or a
/// file (dist::write_file_atomic).
using Sink = std::function<void(const unsigned char* data, std::size_t len)>;

/// Sink appending to `out`, which must outlive it.
inline Sink append_to(std::vector<unsigned char>& out) {
  return [&out](const unsigned char* data, std::size_t len) {
    out.insert(out.end(), data, data + len);
  };
}

/// The output side of every snapshot serializer: streams each field to a
/// Sink and keeps a running CRC-32 and byte count, so a snapshot goes from
/// the accumulator's own arrays to its destination in one pass, sealed on
/// the way, with no intermediate blob.
class Writer {
 public:
  explicit Writer(Sink sink) : sink_(std::move(sink)) {}

  /// 8-byte magic prefix (the NUL of the string literal is not written).
  void magic(const char (&tag)[9]) { put(tag, 8); }

  void u32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    put(b, 4);
  }

  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    put(b, 8);
  }

  /// Raw host-byte dump of a trivially-copyable array (doubles, int64s).
  template <typename T>
  void array(const T* data, std::size_t count) {
    put(data, count * sizeof(T));
  }

  /// Appends the CRC-32 of everything written so far and returns it: the
  /// snapshot's seal, which identifies its bytes (the CRC-32 of a sealed
  /// blob as a whole is the same residue for every blob).
  std::uint32_t seal() {
    const std::uint32_t body = crc_;
    u32(body);
    return body;
  }

  /// Bytes written so far.
  std::uint64_t size() const { return size_; }

 private:
  /// Bytes per CRC + sink step: a large array is checksummed and handed on
  /// in pieces, so each piece is still in cache when the sink copies it.
  static constexpr std::size_t kPiece = std::size_t{1} << 18;

  void put(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    size_ += len;
    while (len > 0) {
      const std::size_t n = std::min(len, kPiece);
      crc_ = util::crc32_update(crc_, p, n);
      sink_(p, n);
      p += n;
      len -= n;
    }
  }

  Sink sink_;
  std::uint32_t crc_ = 0;
  std::uint64_t size_ = 0;
};

/// The seal a sealed blob ends with: its last 4 bytes, little-endian.
/// `blob` must hold at least 4 bytes.
inline std::uint32_t seal_of(std::span<const unsigned char> blob) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= std::uint32_t{blob[blob.size() - 4 + i]} << (8 * i);
  return v;
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
    if (util::crc32(blob_.data(), body) != seal_of(blob_))
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

  /// The next `n` bytes in place, unaligned: how a snapshot's bulk arrays
  /// are folded without a second copy of them.
  std::span<const unsigned char> view(std::size_t n) { return {take(n), n}; }

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
