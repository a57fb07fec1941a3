// Mutations for parser fuzzing.
//
// Random byte mutations, for rftc::pbt: a mutation is a handful of XOR
// edits of a valid document (a sealed wire blob, a protocol file, a JSON
// report), optionally confined to a header and resealed so it gets past the
// trailing CRC.  Properties draw one with random_mutation(), apply it with
// mutated(), and hand shrink_mutation / describe_mutation to pbt::check so
// a falsified case shrinks to a single edit and prints as "raw edits: 17^4".
//
// Boundary values, enumerated: a byte edit almost never turns one valid
// number into another, so the out-of-range and non-integral numbers that
// break integer parsers get their own mutations.  with_number() swaps one
// number token of a JSON text for each of boundary_numbers(); with_field()
// sets one little-endian field of a sealed blob's header to each of
// boundary_values() and reseals it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
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

// ---- Boundary values -------------------------------------------------------

/// Numbers an integer field must not take at face value: negative,
/// fractional, past every integer type, and 2^64.
inline const std::vector<std::string>& boundary_numbers() {
  static const std::vector<std::string> v = {"-1", "1.5", "1e30",
                                             "18446744073709551616"};
  return v;
}

/// [begin, end) of every number token of JSON text, outside strings.
inline std::vector<std::pair<std::size_t, std::size_t>> json_number_tokens(
    std::string_view text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c != '-' && (c < '0' || c > '9')) continue;
    const std::size_t begin = i;
    while (i < text.size() &&
           std::string_view("0123456789+-.eE").find(text[i]) !=
               std::string_view::npos)
      ++i;
    out.emplace_back(begin, i);
    --i;
  }
  return out;
}

/// `text` with the number token [token.first, token.second) replaced.
inline std::string with_number(std::string_view text,
                               std::pair<std::size_t, std::size_t> token,
                               std::string_view value) {
  std::string out(text.substr(0, token.first));
  out += value;
  out += text.substr(token.second);
  return out;
}

/// A little-endian unsigned field of a blob's header: offset and width in
/// bytes (at most 8).
struct Field {
  std::size_t offset = 0;
  std::size_t width = 4;
};

inline std::uint64_t field_value(const std::vector<unsigned char>& blob,
                                 Field f) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < f.width; ++i)
    v |= std::uint64_t{blob.at(f.offset + i)} << (8 * i);
  return v;
}

/// Edge values of a field: 0, 1, all ones (-1), the signed maximum and
/// minimum, and the field's own value plus and minus one.
inline std::vector<std::uint64_t> boundary_values(
    const std::vector<unsigned char>& blob, Field f) {
  const std::uint64_t ones =
      f.width >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * f.width)) - 1;
  const std::uint64_t sign = std::uint64_t{1} << (8 * f.width - 1);
  const std::uint64_t now = field_value(blob, f);
  return {0, 1, ones, sign - 1, sign, (now + 1) & ones, (now - 1) & ones};
}

/// `blob` with field `f` set to `v` and resealed.
inline std::vector<unsigned char> with_field(std::vector<unsigned char> blob,
                                             Field f, std::uint64_t v) {
  for (std::size_t i = 0; i < f.width; ++i)
    blob.at(f.offset + i) = static_cast<unsigned char>(v >> (8 * i));
  return resealed(blob);
}

}  // namespace rftc::fuzz
