// Leakage models: the attacker-side power hypotheses used by CPA.
//
// The paper attacks "the power traces obtained from the last round of AES"
// (§6) with the classic hardware-AES last-round model [13, 15]: the 128-bit
// state register swings from the round-9 state to the ciphertext, so for a
// guess k of round-10 key byte at position p, the predicted contribution is
//
//   HD( InvSbox(C[p] ^ k),  C[src(p)] )
//
// where src(p) is the pre-ShiftRows position of ciphertext byte p.
#pragma once

#include <array>
#include <cstdint>

#include "aes/aes128.hpp"

namespace rftc::aes {

/// Last-round Hamming-distance hypothesis for ciphertext `ct`, attacked
/// round-10 key byte position `byte_pos` (0..15), key guess `guess`.
int last_round_hd_hypothesis(const Block& ct, int byte_pos, std::uint8_t guess);

/// First-round S-box output Hamming-weight hypothesis (software-style CPA,
/// provided for completeness and used by tests): HW(Sbox(pt[b] ^ k)).
int first_round_hw_hypothesis(const Block& pt, int byte_pos,
                              std::uint8_t guess);

/// Precomputed table of last-round hypotheses for all 256 guesses of one
/// byte position, for one ciphertext — the hot path of the CPA engine.
std::array<std::uint8_t, 256> last_round_hypothesis_row(const Block& ct,
                                                        int byte_pos);

/// First-round analogue: HW(Sbox(pt[b] ^ g)) for all 256 guesses.
std::array<std::uint8_t, 256> first_round_hypothesis_row(const Block& pt,
                                                         int byte_pos);

/// Allocation-free row variants writing into caller storage (>= 256 bytes).
/// The S-box/HW lookups are hoisted into 256x256 tables indexed by the one
/// ciphertext/plaintext byte that varies, so the per-trace work collapses
/// to a vectorized XOR+popcount (last round) or a straight table-row copy
/// (first round) over contiguous precomputed model bytes.
void last_round_hypothesis_row_into(const Block& ct, int byte_pos,
                                    std::uint8_t* row);
void first_round_hypothesis_row_into(const Block& pt, int byte_pos,
                                     std::uint8_t* row);

/// The same rows from the one or two data bytes they depend on: the class
/// byte x = ct[byte_pos] and its ShiftRows partner y =
/// ct[shift_rows_source(byte_pos)] for the last round, x = pt[byte_pos] for
/// the first.  The Block overloads above are wrappers around these; the
/// CPA engine buffers (x, y) per trace instead of whole blocks.
void last_round_hypothesis_row_into(std::uint8_t x, std::uint8_t y,
                                    std::uint8_t* row);
void first_round_hypothesis_row_into(std::uint8_t x, std::uint8_t* row);

/// Which intermediate a CPA campaign predicts.
enum class LeakageModel {
  /// HD of the state register across the final round (hardware AES [13]);
  /// recovers the round-10 key.
  kLastRoundHd,
  /// HW of the first-round S-box output; recovers the master key directly
  /// (the classic software-CPA target, usable here because the plaintext
  /// load is on the aligned interface clock).
  kFirstRoundHw,
};

}  // namespace rftc::aes
