// GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1,
// plus constexpr generation of the AES S-box / inverse S-box.
//
// The tables are generated at compile time from first principles
// (multiplicative inverse followed by the affine map of FIPS-197 §5.1.1)
// rather than transcribed, which removes an entire class of copy errors and
// lets the unit tests cross-check the generated tables against the published
// FIPS-197 example vectors.
#pragma once

#include <array>
#include <cstdint>

namespace rftc::gf {

/// Multiply in GF(2^8) mod x^8+x^4+x^3+x+1 (Russian-peasant, constexpr).
constexpr std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = (a & 0x80) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1B;
    b >>= 1;
  }
  return p;
}

/// Multiply by x (that is, by 2) in GF(2^8): a shift, reduced by 0x1B when
/// bit 7 falls out.  Equal to mul(a, 2).
constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a >> 7) * 0x1B));
}

/// Multiplicative inverse in GF(2^8); inv(0) := 0 by AES convention.
constexpr std::uint8_t inverse(std::uint8_t a) {
  if (a == 0) return 0;
  // a^(2^8 - 2) = a^254 via square-and-multiply.
  std::uint8_t result = 1;
  std::uint8_t base = a;
  unsigned exp = 254;
  while (exp) {
    if (exp & 1) result = mul(result, base);
    base = mul(base, base);
    exp >>= 1;
  }
  return result;
}

/// AES forward S-box entry: affine transform of the field inverse.
constexpr std::uint8_t sbox_entry(std::uint8_t x) {
  const std::uint8_t b = inverse(x);
  std::uint8_t y = 0;
  for (int i = 0; i < 8; ++i) {
    const int bit = ((b >> i) & 1) ^ ((b >> ((i + 4) % 8)) & 1) ^
                    ((b >> ((i + 5) % 8)) & 1) ^ ((b >> ((i + 6) % 8)) & 1) ^
                    ((b >> ((i + 7) % 8)) & 1) ^ ((0x63 >> i) & 1);
    y = static_cast<std::uint8_t>(y | (bit << i));
  }
  return y;
}

constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> t{};
  for (int i = 0; i < 256; ++i) t[static_cast<std::size_t>(i)] =
      sbox_entry(static_cast<std::uint8_t>(i));
  return t;
}

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> t{};
  const auto s = make_sbox();
  for (int i = 0; i < 256; ++i) t[s[static_cast<std::size_t>(i)]] =
      static_cast<std::uint8_t>(i);
  return t;
}

inline constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();
inline constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

static_assert(kSbox[0x00] == 0x63, "FIPS-197 S-box spot check");
static_assert(kSbox[0x53] == 0xED, "FIPS-197 S-box spot check");
static_assert(kInvSbox[0x63] == 0x00, "inverse S-box spot check");

}  // namespace rftc::gf
