// Random byte mutations for parser fuzzing with rftc::pbt: a mutation is a
// handful of XOR edits of a valid document (a sealed wire blob, a protocol
// file, a JSON report), optionally confined to a header and resealed so it
// gets past the trailing CRC.  Properties draw one with random_mutation(),
// apply it with mutated(), and hand shrink_mutation / describe_mutation to
// pbt::check so a falsified case shrinks to a single edit and prints as
// "raw edits: 17^4".
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pbt/pbt.hpp"
#include "util/wire.hpp"

namespace rftc::fuzz {

/// `blob` with its trailing CRC replaced by a fresh seal over the rest, so
/// a mutation reaches the parser behind the CRC check.
inline std::vector<unsigned char> resealed(
    const std::vector<unsigned char>& blob) {
  std::vector<unsigned char> out;
  wire::Writer w(wire::append_to(out));
  w.array(blob.data(), blob.size() >= 4 ? blob.size() - 4 : 0);
  w.seal();
  return out;
}

/// `edits` bytes XORed with a non-zero mask anywhere in the document, or
/// only inside its header and then resealed.
struct BlobMutation {
  bool reseal = false;
  std::vector<std::pair<std::size_t, unsigned char>> edits;
};

/// Up to four edits of a non-zero mask each: anywhere in a document of
/// `blob_size` bytes, or only in its first `header` bytes and then resealed.
inline BlobMutation random_mutation(pbt::Rng& rng, std::size_t blob_size,
                                    std::size_t header) {
  BlobMutation m;
  m.reseal = rng.uniform(2) == 1;
  const std::size_t span = m.reseal ? header : blob_size;
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(4));
  for (std::size_t i = 0; i < n; ++i)
    m.edits.emplace_back(static_cast<std::size_t>(rng.uniform(span)),
                         static_cast<unsigned char>(1 + rng.uniform(255)));
  return m;
}

inline std::vector<unsigned char> mutated(std::vector<unsigned char> blob,
                                          const BlobMutation& m) {
  for (const auto& [at, mask] : m.edits) blob[at] ^= mask;
  return m.reseal ? resealed(blob) : blob;
}

/// Shrinks toward a single edit.
inline std::vector<BlobMutation> shrink_mutation(const BlobMutation& m) {
  std::vector<BlobMutation> out;
  for (std::size_t i = 0; m.edits.size() > 1 && i < m.edits.size(); ++i) {
    BlobMutation fewer = m;
    fewer.edits.erase(fewer.edits.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(fewer));
  }
  return out;
}

inline std::string describe_mutation(const BlobMutation& m) {
  std::ostringstream os;
  os << (m.reseal ? "resealed" : "raw") << " edits:";
  for (const auto& [at, mask] : m.edits)
    os << " " << at << "^" << static_cast<unsigned>(mask);
  return os.str();
}

}  // namespace rftc::fuzz
