#include "aes/aes128.hpp"

#include <bit>

#include "aes/gf256.hpp"

namespace rftc::aes {

namespace {

// Round constants for AES-128 key expansion (x^(i-1) in GF(2^8)).
constexpr std::array<std::uint8_t, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1B, 0x36};

std::array<std::uint8_t, 4> rot_word(std::array<std::uint8_t, 4> w) {
  return {w[1], w[2], w[3], w[0]};
}

std::array<std::uint8_t, 4> sub_word(std::array<std::uint8_t, 4> w) {
  for (auto& b : w) b = gf::kSbox[b];
  return w;
}

}  // namespace

KeySchedule expand_key(const Key& key) {
  // 44 words total; w[i] for i >= 4 derived per FIPS-197 §5.2.
  std::array<std::array<std::uint8_t, 4>, 44> w{};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          key[static_cast<std::size_t>(4 * i + j)];
  for (int i = 4; i < 44; ++i) {
    auto temp = w[static_cast<std::size_t>(i - 1)];
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp));
      temp[0] ^= kRcon[static_cast<std::size_t>(i / 4 - 1)];
    }
    for (int j = 0; j < 4; ++j)
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          w[static_cast<std::size_t>(i - 4)][static_cast<std::size_t>(j)] ^
          temp[static_cast<std::size_t>(j)];
  }
  KeySchedule ks{};
  for (int r = 0; r <= kRounds; ++r)
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        ks[static_cast<std::size_t>(r)][static_cast<std::size_t>(4 * i + j)] =
            w[static_cast<std::size_t>(4 * r + i)][static_cast<std::size_t>(j)];
  return ks;
}

Key invert_key_schedule_from_round10(const Block& round10_key) {
  // Walk the 44-word expansion backwards: w[i-4] = w[i] ^ f(w[i-1]).
  std::array<std::array<std::uint8_t, 4>, 44> w{};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      w[static_cast<std::size_t>(40 + i)][static_cast<std::size_t>(j)] =
          round10_key[static_cast<std::size_t>(4 * i + j)];
  for (int i = 43; i >= 4; --i) {
    auto temp = w[static_cast<std::size_t>(i - 1)];
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp));
      temp[0] ^= kRcon[static_cast<std::size_t>(i / 4 - 1)];
    }
    for (int j = 0; j < 4; ++j)
      w[static_cast<std::size_t>(i - 4)][static_cast<std::size_t>(j)] =
          w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] ^
          temp[static_cast<std::size_t>(j)];
  }
  Key key{};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      key[static_cast<std::size_t>(4 * i + j)] =
          w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  return key;
}

void sub_bytes(Block& s) {
  for (auto& b : s) b = gf::kSbox[b];
}

void inv_sub_bytes(Block& s) {
  for (auto& b : s) b = gf::kInvSbox[b];
}

// Block layout: byte 4*c + r is row r, column c; ShiftRows rotates row r
// left by r columns.
void shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      s[static_cast<std::size_t>(4 * c + r)] =
          t[static_cast<std::size_t>(4 * ((c + r) % 4) + r)];
}

void inv_shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      s[static_cast<std::size_t>(4 * ((c + r) % 4) + r)] =
          t[static_cast<std::size_t>(4 * c + r)];
}

int shift_rows_source(int p) {
  const int c = p / 4;
  const int r = p % 4;
  return 4 * ((c + r) % 4) + r;
}

void mix_columns(Block& s) {
  // Row r is 2·a_r ^ 3·a_{r+1} ^ a_{r+2} ^ a_{r+3}
  //        = a_r ^ t ^ xtime(a_r ^ a_{r+1}), with t the column's XOR.
  for (int c = 0; c < 4; ++c) {
    const auto i = static_cast<std::size_t>(4 * c);
    const std::uint8_t a0 = s[i], a1 = s[i + 1], a2 = s[i + 2], a3 = s[i + 3];
    const std::uint8_t t = a0 ^ a1 ^ a2 ^ a3;
    s[i] = a0 ^ t ^ gf::xtime(a0 ^ a1);
    s[i + 1] = a1 ^ t ^ gf::xtime(a1 ^ a2);
    s[i + 2] = a2 ^ t ^ gf::xtime(a2 ^ a3);
    s[i + 3] = a3 ^ t ^ gf::xtime(a3 ^ a0);
  }
}

void inv_mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    const auto i = static_cast<std::size_t>(4 * c);
    const std::uint8_t a0 = s[i], a1 = s[i + 1], a2 = s[i + 2], a3 = s[i + 3];
    s[i] = gf::mul(a0, 14) ^ gf::mul(a1, 11) ^ gf::mul(a2, 13) ^ gf::mul(a3, 9);
    s[i + 1] =
        gf::mul(a0, 9) ^ gf::mul(a1, 14) ^ gf::mul(a2, 11) ^ gf::mul(a3, 13);
    s[i + 2] =
        gf::mul(a0, 13) ^ gf::mul(a1, 9) ^ gf::mul(a2, 14) ^ gf::mul(a3, 11);
    s[i + 3] =
        gf::mul(a0, 11) ^ gf::mul(a1, 13) ^ gf::mul(a2, 9) ^ gf::mul(a3, 14);
  }
}

void add_round_key(Block& s, const Block& rk) {
  for (int i = 0; i < 16; ++i)
    s[static_cast<std::size_t>(i)] ^= rk[static_cast<std::size_t>(i)];
}

Block encrypt(const Block& plaintext, const Key& key) {
  const KeySchedule ks = expand_key(key);
  Block s = plaintext;
  add_round_key(s, ks[0]);
  for (int r = 1; r < kRounds; ++r) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, ks[static_cast<std::size_t>(r)]);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, ks[kRounds]);
  return s;
}

Block decrypt(const Block& ciphertext, const Key& key) {
  const KeySchedule ks = expand_key(key);
  Block s = ciphertext;
  add_round_key(s, ks[kRounds]);
  inv_shift_rows(s);
  inv_sub_bytes(s);
  for (int r = kRounds - 1; r >= 1; --r) {
    add_round_key(s, ks[static_cast<std::size_t>(r)]);
    inv_mix_columns(s);
    inv_shift_rows(s);
    inv_sub_bytes(s);
  }
  add_round_key(s, ks[0]);
  return s;
}

int hamming_weight(std::uint8_t v) { return std::popcount(v); }

int hamming_distance(std::uint8_t a, std::uint8_t b) {
  return std::popcount(static_cast<std::uint8_t>(a ^ b));
}

int hamming_distance(const Block& a, const Block& b) {
  int d = 0;
  for (int i = 0; i < 16; ++i)
    d += hamming_distance(a[static_cast<std::size_t>(i)],
                          b[static_cast<std::size_t>(i)]);
  return d;
}

}  // namespace rftc::aes
