// Streaming statistics used by the side-channel analysis stack.
//
// Every attack in the paper (CPA and its PCA/DTW/FFT-preprocessed variants,
// plus the TVLA leakage assessment) reduces to running first/second moments
// and cross moments over a stream of traces, so these accumulators are the
// shared numerical core.  All accumulation is in double precision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rftc::wire {
class Writer;
}  // namespace rftc::wire

namespace rftc {

/// Welford one-pass mean/variance accumulator.
class RunningMoments {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 if fewer than 2 samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Pearson correlation of two equal-length spans.
double pearson(std::span<const double> x, std::span<const double> y);

/// Welch's t statistic between two populations given by their moments.
/// Returns 0 when either population has fewer than 2 samples or both
/// variances are zero.
double welch_t(const RunningMoments& a, const RunningMoments& b);

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

  void add_fixed(std::span<const double> trace);
  void add_random(std::span<const double> trace);

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

  /// Range variants for the sample-sharded parallel TVLA path: accumulate
  /// samples [s0, s1) of a raw float trace into the matching per-sample
  /// moments.  Each sample sees the same double-converted value and update
  /// order as the full-trace overloads, so sharding over samples is
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

/// Streaming Pearson correlation accumulator between a scalar hypothesis and
/// every sample of a trace — the CPA inner loop.  For a batch of guesses the
/// CpaEngine keeps one of these per (byte, guess) pair conceptually, but a
/// flattened layout is used there for speed; this class is the reference
/// implementation used by tests.
class StreamingCorrelation {
 public:
  explicit StreamingCorrelation(std::size_t samples);

  void add(double h, std::span<const double> trace);

  /// Correlation per sample; 0 where degenerate.
  std::vector<double> correlations() const;
  double max_abs_correlation() const;
  std::size_t count() const { return n_; }

 private:
  std::size_t n_ = 0;
  double sum_h_ = 0.0, sum_h2_ = 0.0;
  std::vector<double> sum_t_, sum_t2_, sum_ht_;
};

/// Population Pearson correlation from raw sums:
/// n, Σh, Σh², Σt, Σt², Σht.  Returns 0 when degenerate.
double correlation_from_sums(double n, double sh, double sh2, double st,
                             double st2, double sht);

}  // namespace rftc
