// Streaming statistics for the TVLA leakage assessment.
//
// The fixed-vs-random Welch t-test reduces to per-sample raw moment sums
// (count, Σx, Σx²) over a stream of traces, accumulated in double precision
// by the rftc::simd kernels; CPA keeps its own class sums (analysis/cpa.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rftc::wire {
class Writer;
}  // namespace rftc::wire

namespace rftc {

/// Welch's t statistic from raw per-population moment sums
/// (n, Σx, Σx²).  Returns 0 when either population has fewer than 2
/// samples or the pooled standard error is zero; rounding-induced
/// negative variances are clamped to 0.
double welch_t_from_sums(double nf, double sf, double sf2, double nr,
                         double sr, double sr2);

/// Streaming per-sample Welch t-test over two trace populations
/// (fixed-input vs random-input), the TVLA methodology of [6].
///
/// Internally the state is raw per-sample moment sums — count / Σx / Σx²
/// stored structure-of-arrays as parallel double arrays — accumulated by the
/// rftc::simd kernels, with the t sweep computed from the sums at the end.
/// Per-lane counts are doubles, exact up to 2^53 traces.  Raw sums (rather
/// than Welford mean/m2 recurrences) are what make merge() exact: combining
/// two accumulators is elementwise double addition, which is associative and
/// bit-identical to single-pass accumulation whenever the individual sums
/// are exact — true for ADC-quantized traces, whose values are small dyadic
/// rationals (see trace/power_model.hpp).  This is the contract the sharded
/// campaign engine builds on; docs/TESTING.md spells it out and
/// tests/test_pbt_merge.cpp enforces it.
class WelchTTest {
 public:
  explicit WelchTTest(std::size_t samples);

  /// Folds another accumulator (same samples()) into this one by elementwise
  /// addition of the raw sums.  With exact per-shard sums the result is
  /// bit-identical to a single accumulator fed both shards' traces, in any
  /// association order.  Throws std::invalid_argument on shape mismatch.
  void merge(const WelchTTest& other);

  /// Byte-exact snapshot of the accumulator state for the distributed
  /// campaign protocol: magic + sample count + the six raw-sum arrays, with
  /// a trailing CRC-32 over everything before it.  deserialize() of the
  /// blob reconstructs an accumulator that merges and reports bit-identically
  /// to this one; a corrupt, truncated or wrong-magic payload throws
  /// std::runtime_error instead of merging garbage.  As for CpaEngine, the
  /// Writer overload is the one serializer (it returns the seal) and the
  /// blob overload streams it into memory.
  std::uint32_t serialize(wire::Writer& out) const;
  std::vector<unsigned char> serialize() const;
  static WelchTTest deserialize(std::span<const unsigned char> blob);

  /// Accumulate samples [s0, s1) of a raw float trace into the matching
  /// per-sample moments; a whole trace is the range [0, samples()).  Each
  /// sample sees the same double-converted value and update order whatever
  /// the range, so sharding over samples (the parallel TVLA path) is
  /// bit-identical to the serial accumulation.
  void add_fixed_range(std::span<const float> trace, std::size_t s0,
                       std::size_t s1);
  void add_random_range(std::span<const float> trace, std::size_t s0,
                        std::size_t s1);

  std::size_t samples() const { return f_n_.size(); }
  std::size_t fixed_count() const;
  std::size_t random_count() const;

  /// Per-sample t statistic.
  std::vector<double> t_values() const;

 private:
  // Fixed-class and random-class raw moment sums, one lane per sample.
  std::vector<double> f_n_, f_sum_, f_sum2_;
  std::vector<double> r_n_, r_sum_, r_sum2_;
};

/// What a TVLA verdict reads off one sweep of per-sample t statistics.
struct TStatScan {
  double max_abs_t = 0.0;
  /// First sample attaining max_abs_t.
  std::size_t worst_sample = 0;
  /// Samples with |t| strictly above the threshold.
  std::size_t leaking_samples = 0;
  /// Signed extrema, each clamped at 0 from the other side.
  double max_t = 0.0;
  double min_t = 0.0;
};

/// The one t-scan: a single pass over `t` against `threshold`.
TStatScan scan_t(std::span<const double> t, double threshold);

}  // namespace rftc
