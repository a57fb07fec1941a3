// TraceSet: a captured campaign — the trace matrix plus the known
// plaintexts and observed ciphertexts the threat model grants the attacker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "aes/aes128.hpp"

namespace rftc::trace {

class TraceSet {
 public:
  TraceSet(std::size_t n_samples);

  void add(std::vector<float> trace, const aes::Block& plaintext,
           const aes::Block& ciphertext);

  /// Pre-allocates room for `n` traces.
  void reserve(std::size_t n);

  /// Appends every trace of `other` (same sample count) in order — the
  /// ordered-merge step of parallel acquisition.
  void append(const TraceSet& other);

  std::size_t size() const { return plaintexts_.size(); }
  std::size_t samples() const { return n_samples_; }

  std::span<const float> trace(std::size_t i) const;
  const aes::Block& plaintext(std::size_t i) const { return plaintexts_[i]; }
  const aes::Block& ciphertext(std::size_t i) const {
    return ciphertexts_[i];
  }

  /// Mean trace over the whole set (reference trace for DTW alignment).
  std::vector<double> mean_trace() const;

  /// Box-average downsampling by an integer factor (attack-side
  /// preprocessing; trailing partial boxes are dropped).
  TraceSet downsampled(std::size_t factor) const;

  /// Calls `fn(*this, t0, t1)` with `t1` clamped to size(), or nothing when
  /// the range is empty: the in-RAM counterpart of TraceStore::for_range.
  /// An in-RAM set is a single segment, so campaign code walks either
  /// source through one loop.
  template <class Fn>
  void for_range(std::size_t t0, std::size_t t1, Fn&& fn) const {
    t1 = std::min(t1, size());
    if (t0 < t1) fn(*this, t0, t1);
  }

 private:
  std::size_t n_samples_;
  std::vector<float> data_;
  std::vector<aes::Block> plaintexts_;
  std::vector<aes::Block> ciphertexts_;
};

/// Box average of `in` by `factor` into `out` (out.size() boxes; trailing
/// samples that do not fill a box are dropped).  The one downsampling
/// kernel: each box sums in double in sample order and rounds once to
/// float, so every caller gets the same bits.
void box_average(std::span<const float> in, std::size_t factor,
                 std::span<float> out);

}  // namespace rftc::trace
