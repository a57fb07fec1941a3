// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check of the chunked trace store (src/trace/trace_store.hpp) and of the
// wire blobs of the distributed campaign (src/util/wire.hpp).  Chosen over
// a cryptographic hash deliberately: store chunks are gigabytes of float
// data whose threat model is bit rot and truncation, not forgery.  The
// kernel lives in rftc::simd (a PCLMULQDQ fold on the AVX2 backend, a byte
// table on the scalar one); both return the same value.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/simd.hpp"

namespace rftc::util {

/// Incremental update: feed `crc32_update(crc, ...)` the running value
/// (start from 0) over consecutive byte ranges; the result is identical to
/// one pass over the concatenation.
inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t len) {
  return simd::crc32_update(crc, data, len);
}

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  return crc32_update(0, data, len);
}

}  // namespace rftc::util
