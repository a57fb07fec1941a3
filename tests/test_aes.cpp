#include "aes/aes128.hpp"

#include <gtest/gtest.h>

#include "aes/gf256.hpp"
#include "aes/round_engine.hpp"
#include "util/rng.hpp"

namespace rftc::aes {
namespace {

Block from_hex_words(std::initializer_list<std::uint8_t> bytes) {
  Block b{};
  std::size_t i = 0;
  for (const std::uint8_t v : bytes) b[i++] = v;
  return b;
}

// FIPS-197 Appendix B example.
const Block kFipsPlain = from_hex_words({0x32, 0x43, 0xF6, 0xA8, 0x88, 0x5A,
                                         0x30, 0x8D, 0x31, 0x31, 0x98, 0xA2,
                                         0xE0, 0x37, 0x07, 0x34});
const Key kFipsKey = from_hex_words({0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2,
                                     0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF,
                                     0x4F, 0x3C});
const Block kFipsCipher = from_hex_words({0x39, 0x25, 0x84, 0x1D, 0x02, 0xDC,
                                          0x09, 0xFB, 0xDC, 0x11, 0x85, 0x97,
                                          0x19, 0x6A, 0x0B, 0x32});

// FIPS-197 Appendix C.1 (AES-128) known-answer vector.
const Block kKatPlain = from_hex_words({0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                        0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB,
                                        0xCC, 0xDD, 0xEE, 0xFF});
const Key kKatKey = from_hex_words({0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                    0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D,
                                    0x0E, 0x0F});
const Block kKatCipher = from_hex_words({0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B,
                                         0x04, 0x30, 0xD8, 0xCD, 0xB7, 0x80,
                                         0x70, 0xB4, 0xC5, 0x5A});

TEST(GF256, MulAgainstKnownProducts) {
  EXPECT_EQ(gf::mul(0x57, 0x83), 0xC1);  // FIPS-197 example
  EXPECT_EQ(gf::mul(0x57, 0x13), 0xFE);
  EXPECT_EQ(gf::mul(0x01, 0xAB), 0xAB);
  EXPECT_EQ(gf::mul(0x00, 0xFF), 0x00);
}

TEST(GF256, InverseIsMultiplicativeInverse) {
  for (int v = 1; v < 256; ++v) {
    const auto x = static_cast<std::uint8_t>(v);
    EXPECT_EQ(gf::mul(x, gf::inverse(x)), 1) << "v=" << v;
  }
  EXPECT_EQ(gf::inverse(0), 0);
}

TEST(GF256, SboxMatchesFipsSpotValues) {
  EXPECT_EQ(gf::kSbox[0x00], 0x63);
  EXPECT_EQ(gf::kSbox[0x01], 0x7C);
  EXPECT_EQ(gf::kSbox[0x53], 0xED);
  EXPECT_EQ(gf::kSbox[0xFF], 0x16);
  EXPECT_EQ(gf::kSbox[0x10], 0xCA);
}

TEST(GF256, SboxIsBijective) {
  bool seen[256] = {};
  for (int i = 0; i < 256; ++i) {
    EXPECT_FALSE(seen[gf::kSbox[static_cast<std::size_t>(i)]]);
    seen[gf::kSbox[static_cast<std::size_t>(i)]] = true;
  }
}

TEST(GF256, InvSboxInvertsSbox) {
  for (int i = 0; i < 256; ++i)
    EXPECT_EQ(gf::kInvSbox[gf::kSbox[static_cast<std::size_t>(i)]], i);
}

TEST(Aes128, FipsAppendixBEncrypt) {
  EXPECT_EQ(encrypt(kFipsPlain, kFipsKey), kFipsCipher);
}

TEST(Aes128, FipsAppendixC1Encrypt) {
  EXPECT_EQ(encrypt(kKatPlain, kKatKey), kKatCipher);
}

TEST(Aes128, DecryptInvertsEncrypt) {
  EXPECT_EQ(decrypt(kFipsCipher, kFipsKey), kFipsPlain);
  EXPECT_EQ(decrypt(kKatCipher, kKatKey), kKatPlain);
}

TEST(Aes128, KeyExpansionFirstAndLastWords) {
  // FIPS-197 Appendix A.1 expansion of kFipsKey.
  const KeySchedule ks = expand_key(kFipsKey);
  EXPECT_EQ(ks[0], kFipsKey);
  // w[40..43] = b6630ca6 ... the round-10 key.
  const Block rk10 = from_hex_words({0xD0, 0x14, 0xF9, 0xA8, 0xC9, 0xEE, 0x25,
                                     0x89, 0xE1, 0x3F, 0x0C, 0xC8, 0xB6, 0x63,
                                     0x0C, 0xA6});
  EXPECT_EQ(ks[10], rk10);
}

TEST(Aes128, InvertKeyScheduleRecoversMaster) {
  Xoshiro256StarStar rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    Key key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    const KeySchedule ks = expand_key(key);
    EXPECT_EQ(invert_key_schedule_from_round10(ks[10]), key);
  }
}

TEST(Aes128, EncryptDecryptRoundTripRandom) {
  Xoshiro256StarStar rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    Key key{};
    Block pt{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(decrypt(encrypt(pt, key), key), pt);
  }
}

TEST(Aes128, ShiftRowsInverse) {
  Block s{};
  for (int i = 0; i < 16; ++i) s[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  Block t = s;
  shift_rows(t);
  EXPECT_NE(t, s);
  inv_shift_rows(t);
  EXPECT_EQ(t, s);
}

TEST(Aes128, ShiftRowsRowZeroFixed) {
  Block s{};
  for (int i = 0; i < 16; ++i) s[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  shift_rows(s);
  // Row 0 (indices 0, 4, 8, 12) is not rotated.
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[4], 4);
  EXPECT_EQ(s[8], 8);
  EXPECT_EQ(s[12], 12);
  // Row 1 rotates left by one column: position (r=1, c=0) receives byte 5.
  EXPECT_EQ(s[1], 5);
}

TEST(Aes128, MixColumnsKnownVector) {
  // FIPS-197 §5.1.3 example column: db 13 53 45 -> 8e 4d a1 bc.
  Block s{};
  s[0] = 0xDB; s[1] = 0x13; s[2] = 0x53; s[3] = 0x45;
  mix_columns(s);
  EXPECT_EQ(s[0], 0x8E);
  EXPECT_EQ(s[1], 0x4D);
  EXPECT_EQ(s[2], 0xA1);
  EXPECT_EQ(s[3], 0xBC);
}

TEST(Aes128, MixColumnsMatchesTheFieldMultiplyFormula) {
  // FIPS-197 §5.1.3 spelled with gf::mul, against the xtime form.
  for (std::uint32_t a = 0; a < 256; ++a)
    EXPECT_EQ(gf::xtime(static_cast<std::uint8_t>(a)),
              gf::mul(static_cast<std::uint8_t>(a), 2))
        << a;
  Xoshiro256StarStar rng(0x3C);
  for (int trial = 0; trial < 2'000; ++trial) {
    Block s{};
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    Block want = s;
    for (std::size_t i = 0; i < 16; i += 4) {
      const std::uint8_t a0 = s[i], a1 = s[i + 1], a2 = s[i + 2],
                         a3 = s[i + 3];
      want[i] = gf::mul(a0, 2) ^ gf::mul(a1, 3) ^ a2 ^ a3;
      want[i + 1] = a0 ^ gf::mul(a1, 2) ^ gf::mul(a2, 3) ^ a3;
      want[i + 2] = a0 ^ a1 ^ gf::mul(a2, 2) ^ gf::mul(a3, 3);
      want[i + 3] = gf::mul(a0, 3) ^ a1 ^ a2 ^ gf::mul(a3, 2);
    }
    mix_columns(s);
    ASSERT_EQ(s, want) << "trial " << trial;
  }
}

TEST(Aes128, MixColumnsInverse) {
  Xoshiro256StarStar rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    Block s{};
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    Block t = s;
    mix_columns(t);
    inv_mix_columns(t);
    EXPECT_EQ(t, s);
  }
}

TEST(Aes128, ShiftRowsSourceConsistentWithShiftRows) {
  Block s{};
  for (int i = 0; i < 16; ++i) s[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i * 7 + 3);
  Block t = s;
  shift_rows(t);
  for (int p = 0; p < 16; ++p)
    EXPECT_EQ(t[static_cast<std::size_t>(p)],
              s[static_cast<std::size_t>(shift_rows_source(p))]);
}

TEST(Hamming, WeightAndDistance) {
  EXPECT_EQ(hamming_weight(0x00), 0);
  EXPECT_EQ(hamming_weight(0xFF), 8);
  EXPECT_EQ(hamming_weight(0xA5), 4);
  EXPECT_EQ(hamming_distance(std::uint8_t{0x0F}, std::uint8_t{0xF0}), 8);
  EXPECT_EQ(hamming_distance(std::uint8_t{0xAA}, std::uint8_t{0xAB}), 1);
  Block a{}, b{};
  b[3] = 0xFF;
  b[9] = 0x01;
  EXPECT_EQ(hamming_distance(a, b), 9);
}

class AvalancheTest : public ::testing::TestWithParam<int> {};

TEST_P(AvalancheTest, SingleBitFlipChangesAboutHalfTheCiphertext) {
  const int bit = GetParam();
  Block pt = kKatPlain;
  const Block c0 = encrypt(pt, kKatKey);
  pt[static_cast<std::size_t>(bit / 8)] ^=
      static_cast<std::uint8_t>(1u << (bit % 8));
  const Block c1 = encrypt(pt, kKatKey);
  const int d = hamming_distance(c0, c1);
  EXPECT_GE(d, 40);  // ideal 64, wide tolerance
  EXPECT_LE(d, 88);
}

INSTANTIATE_TEST_SUITE_P(Bits, AvalancheTest,
                         ::testing::Values(0, 1, 7, 8, 31, 63, 64, 100, 127));


// ---------------------------------------------------------------------------
// FIPS-197 Appendix B: the full per-round state trace, checked against the
// round engine's recorded cycles.  Cycle 0 is the state after the initial
// AddRoundKey; cycle r is Appendix B's "Start of Round r+1" (= the state
// latched after round r); cycle 10 is the ciphertext.
// ---------------------------------------------------------------------------

TEST(Aes128, FipsAppendixBPerRoundStates) {
  static const char* kRoundStates[11] = {
      "193de3bea0f4e22b9ac68d2ae9f84808",  // after initial AddRoundKey
      "a49c7ff2689f352b6b5bea43026a5049",  // start of round 2
      "aa8f5f0361dde3ef82d24ad26832469a",
      "486c4eee671d9d0d4de3b138d65f58e7",
      "e0927fe8c86363c0d9b1355085b8be01",
      "f1006f55c1924cef7cc88b325db5d50c",
      "260e2e173d41b77de86472a9fdd28b25",
      "5a4142b11949dc1fa3e019657a8c040c",
      "ea835cf00445332d655d98ad8596b0c5",
      "eb40f21e592e38848ba113e71bc342d2",  // start of round 10
      "3925841d02dc09fbdc118597196a0b32",  // output
  };
  const EncryptionActivity act(kFipsPlain, expand_key(kFipsKey), Block{});
  ASSERT_EQ(act.cycles().size(), 11u);
  for (std::size_t c = 0; c < 11; ++c) {
    Block want{};
    for (int i = 0; i < 16; ++i) {
      auto nib = [&](char ch) {
        return static_cast<std::uint8_t>(
            ch <= '9' ? ch - '0' : ch - 'a' + 10);
      };
      want[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          (nib(kRoundStates[c][2 * i]) << 4) | nib(kRoundStates[c][2 * i + 1]));
    }
    EXPECT_EQ(act.cycles()[c].state, want) << "cycle " << c;
  }
  EXPECT_EQ(act.injected_flips(), 0);
}

// ---------------------------------------------------------------------------
// Differential fault analysis shape (docs/ROBUSTNESS.md): a single bit
// flipped at the *input* of round 9 passes through one MixColumns, so it
// corrupts exactly the 4 ciphertext bytes fed by one state column; flipped
// at the input of round 10 (no MixColumns) it corrupts exactly 1 byte.
// ---------------------------------------------------------------------------

namespace dfa {

/// Ciphertext positions corrupted by a round-9 input fault in byte `idx`:
/// trace a marker byte through ShiftRows (round 9), expand to its column
/// (MixColumns), then through ShiftRows again (round 10).
std::array<bool, 16> round9_footprint(int idx) {
  Block marker{};
  marker[static_cast<std::size_t>(idx)] = 0xFF;
  shift_rows(marker);
  for (int c = 0; c < 4; ++c) {
    bool hit = false;
    for (int r = 0; r < 4; ++r) hit |= marker[static_cast<std::size_t>(4 * c + r)] != 0;
    if (hit)
      for (int r = 0; r < 4; ++r) marker[static_cast<std::size_t>(4 * c + r)] = 0xFF;
  }
  shift_rows(marker);
  std::array<bool, 16> out{};
  for (int i = 0; i < 16; ++i) out[static_cast<std::size_t>(i)] = marker[static_cast<std::size_t>(i)] != 0;
  return out;
}

}  // namespace dfa

TEST(FaultedRoundDifferential, Round9BitFlipDiffusesToExactlyFourBytes) {
  const KeySchedule ks = expand_key(kKatKey);
  const Block clean = encrypt(kKatPlain, kKatKey);
  for (int bit = 0; bit < 128; bit += 7) {
    const std::vector<rftc::fault::FaultSite> forced{{9, bit}};
    const EncryptionActivity act(kKatPlain, ks, Block{}, {}, forced, nullptr);
    EXPECT_EQ(act.injected_flips(), 1);
    const std::array<bool, 16> footprint = dfa::round9_footprint(bit / 8);
    int diff_bytes = 0;
    for (int i = 0; i < 16; ++i) {
      const bool differs =
          act.ciphertext()[static_cast<std::size_t>(i)] != clean[static_cast<std::size_t>(i)];
      if (differs) ++diff_bytes;
      EXPECT_EQ(differs, footprint[static_cast<std::size_t>(i)])
          << "bit " << bit << " byte " << i;
    }
    EXPECT_EQ(diff_bytes, 4) << "bit " << bit;
  }
}

TEST(FaultedRoundDifferential, Round10BitFlipCorruptsExactlyOneByte) {
  const KeySchedule ks = expand_key(kKatKey);
  const Block clean = encrypt(kKatPlain, kKatKey);
  for (int bit = 0; bit < 128; bit += 11) {
    const std::vector<rftc::fault::FaultSite> forced{{10, bit}};
    const EncryptionActivity act(kKatPlain, ks, Block{}, {}, forced, nullptr);
    int diff_bytes = 0;
    int diff_at = -1;
    for (int i = 0; i < 16; ++i) {
      if (act.ciphertext()[static_cast<std::size_t>(i)] != clean[static_cast<std::size_t>(i)]) {
        ++diff_bytes;
        diff_at = i;
      }
    }
    EXPECT_EQ(diff_bytes, 1) << "bit " << bit;
    // The faulted byte lands where ShiftRows sends it: the ciphertext
    // position whose pre-ShiftRows source is the faulted byte.
    EXPECT_EQ(shift_rows_source(diff_at), bit / 8) << "bit " << bit;
  }
}

TEST(FaultedRoundDifferential, EarlyRoundFaultAvalanchesBeyondFourBytes) {
  // The 4-byte signature is specific to round 9: a round-1 fault passes
  // through many MixColumns layers and avalanche destroys the structure.
  const KeySchedule ks = expand_key(kKatKey);
  const Block clean = encrypt(kKatPlain, kKatKey);
  const std::vector<rftc::fault::FaultSite> forced{{1, 0}};
  const EncryptionActivity act(kKatPlain, ks, Block{}, {}, forced, nullptr);
  int diff_bytes = 0;
  for (int i = 0; i < 16; ++i)
    if (act.ciphertext()[static_cast<std::size_t>(i)] != clean[static_cast<std::size_t>(i)]) ++diff_bytes;
  EXPECT_GT(diff_bytes, 10);
}

}  // namespace
}  // namespace rftc::aes

