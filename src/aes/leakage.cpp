#include "aes/leakage.hpp"

#include <cstring>

#include "aes/gf256.hpp"
#include "simd/simd.hpp"

namespace rftc::aes {

namespace {

// 256x256 hoisted model tables, indexed by the single data byte that varies
// per trace.  kInvRows[c][g] = InvSbox(c ^ g): the last-round row becomes
// one vectorized XOR+popcount against the ShiftRows partner byte.
// kHwRows[p][g] = HW(Sbox(p ^ g)): the first-round row is a plain copy.
struct ModelTables {
  std::uint8_t inv_rows[256][256];
  std::uint8_t hw_rows[256][256];
};

const ModelTables& model_tables() {
  static const ModelTables t = [] {
    ModelTables m;
    for (int x = 0; x < 256; ++x) {
      for (int g = 0; g < 256; ++g) {
        m.inv_rows[x][g] = gf::kInvSbox[x ^ g];
        m.hw_rows[x][g] =
            static_cast<std::uint8_t>(hamming_weight(gf::kSbox[x ^ g]));
      }
    }
    return m;
  }();
  return t;
}

}  // namespace

int last_round_hd_hypothesis(const Block& ct, int byte_pos,
                             std::uint8_t guess) {
  const std::uint8_t pre =
      gf::kInvSbox[ct[static_cast<std::size_t>(byte_pos)] ^ guess];
  const std::uint8_t post =
      ct[static_cast<std::size_t>(shift_rows_source(byte_pos))];
  return hamming_distance(pre, post);
}

int first_round_hw_hypothesis(const Block& pt, int byte_pos,
                              std::uint8_t guess) {
  return hamming_weight(
      gf::kSbox[pt[static_cast<std::size_t>(byte_pos)] ^ guess]);
}

std::array<std::uint8_t, 256> last_round_hypothesis_row(const Block& ct,
                                                        int byte_pos) {
  std::array<std::uint8_t, 256> row{};
  last_round_hypothesis_row_into(ct, byte_pos, row.data());
  return row;
}

std::array<std::uint8_t, 256> first_round_hypothesis_row(const Block& pt,
                                                         int byte_pos) {
  std::array<std::uint8_t, 256> row{};
  first_round_hypothesis_row_into(pt, byte_pos, row.data());
  return row;
}

void last_round_hypothesis_row_into(const Block& ct, int byte_pos,
                                    std::uint8_t* row) {
  last_round_hypothesis_row_into(
      ct[static_cast<std::size_t>(byte_pos)],
      ct[static_cast<std::size_t>(shift_rows_source(byte_pos))], row);
}

void first_round_hypothesis_row_into(const Block& pt, int byte_pos,
                                     std::uint8_t* row) {
  first_round_hypothesis_row_into(pt[static_cast<std::size_t>(byte_pos)], row);
}

void last_round_hypothesis_row_into(std::uint8_t x, std::uint8_t y,
                                    std::uint8_t* row) {
  simd::xor_popcount(model_tables().inv_rows[x], y, row, 256);
}

void first_round_hypothesis_row_into(std::uint8_t x, std::uint8_t* row) {
  std::memcpy(row, model_tables().hw_rows[x], 256);
}

}  // namespace rftc::aes
