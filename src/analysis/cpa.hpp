// CPA engine (Brier–Clavier–Olivier [4]) against the last AES round, the
// attack the paper mounts on every implementation (§6).
//
// The engine keeps, for every attacked key-byte position and every one of
// the 256 guesses, the raw sums needed for Pearson correlation against
// every trace sample.  Traces stream in one at a time, so key ranks can be
// evaluated at arbitrary checkpoints — that is how the success-rate curves
// of Fig. 4/Fig. 5 are produced without re-accumulating per checkpoint.
//
// Hypotheses take only the nine values 0..8, and both leakage models
// factor through the bits of an S-box output:  h = HD(InvSbox(x^g), y) =
// w(y) + Σ_k bit_k(InvSbox(x^g)) · (1 − 2·bit_k(y)).  The engine therefore
// accumulates per-class sums (W and sign-weighted per-bit-plane partial
// sums D indexed by the ciphertext byte x) at ~9·S work per trace instead
// of the textbook 256·S rank-1 update of sum_ht[byte][guess][sample], and
// report() materialises sum_ht for all 256 guesses at once as an
// XOR-convolution via the Walsh–Hadamard transform.
//
// add() only buffers: it copies the trace into a tile of `batch_size()`
// and records each attacked byte's class inputs (x, y).  The flush owns
// everything else.  It is one parallel_for with one shard per attacked
// byte plus one for the per-sample trace sums.  A byte's shard
// stable-sorts the tile by class x and walks it class by class, so a
// class's bit-plane rows (8 KB at S=125) stay in L1 while all of its
// traces in the tile land in them — one row-group load per class per
// tile instead of one per trace.  The same walk rebuilds each trace's
// 256-guess hypothesis row from (x, y) and counts it into the byte's
// integer sums sum_h/sum_h2.
//
// The report is one parallel_for over (byte, ≤128-sample block) shards
// (blocks narrow to as few as 16 samples so that a report on one or two
// bytes still has 8 shards).  A shard copies each bit plane's 256 class
// rows into a dense [256][≤128] panel, transforms it with simd::wht256
// (the whole 256-point WHT down the panel's rows), accumulates the
// spectra-weighted planes, transforms back and scans every guess's
// correlation over the block with one peak_abs_correlation_scaled call.
// Per-block peaks merge by max().
//
// Determinism: every per-element floating-point accumulation happens in
// trace order regardless of tile boundaries.  The class sort is stable, so
// each class-sum element still sees its traces in trace order; W and the
// trace sums are walked in plain trace order.  The hypothesis sums are
// exact integers, so their order is free.  Every WHT element sees the same
// add/sub sequence whatever the panel width or kernel backend.  Flush and
// report shards are a pure function of (bytes, samples).  So results
// are bit-identical for any input — not only quantized traces —
// any RFTC_THREADS and any batch size.  On raw ADC traces (multiples
// of the 400/256 mV quantum) every product and partial sum is an exact
// small multiple of that quantum, so the engine is additionally
// bit-identical to the textbook per-trace accumulator — the scalar oracle
// in tests/cpa_oracle.hpp, which the golden determinism test and
// fig4_cpa_speedup compare it against.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aes/aes128.hpp"
#include "aes/leakage.hpp"

namespace rftc::wire {
class Reader;
class Writer;
}  // namespace rftc::wire

namespace rftc::analysis {

/// Read by nothing; kept for perfbench's two assignments.
enum class CpaMode { kBatched };

class CpaEngine {
 public:
  /// RFTC_CPA_BATCH=<n> traces per tile (default env::kCpaBatchDefault,
  /// 1,024: ≈4 traces per class per tile, ≈0.5 MB of floats at S=125).
  static std::size_t default_batch_size();

  /// `byte_positions`: key byte indices to attack (0..15).  With the
  /// default last-round model the recovered bytes belong to the round-10
  /// key; with the first-round model, to the master key.
  CpaEngine(std::size_t samples, std::vector<int> byte_positions,
            aes::LeakageModel model = aes::LeakageModel::kLastRoundHd);

  /// Accumulate one trace with its known plaintext/observed ciphertext.
  void add(const aes::Block& plaintext, const aes::Block& ciphertext,
           std::span<const float> trace);
  /// Last-round-only convenience (plaintext unused by that model).
  void add(const aes::Block& ciphertext, std::span<const float> trace);

  std::size_t count() const { return n_; }
  std::size_t samples() const { return samples_; }
  const std::vector<int>& byte_positions() const { return bytes_; }

  std::size_t batch_size() const { return batch_; }
  /// Resizes the tile (flushes any buffered traces first).
  /// Results are independent of the batch size — this is a tuning knob.
  /// Throws std::invalid_argument for 0, for more than UINT32_MAX traces
  /// and for a tile whose size in samples or class bytes would overflow —
  /// as the constructor does for RFTC_CPA_BATCH.
  void set_batch_size(std::size_t batch);

  /// Folds another engine's accumulated state into this one.  Both engines
  /// must have identical geometry (samples, byte positions, leakage model);
  /// any buffered tiles are flushed first, then every sum — per-sample
  /// trace sums, integer hypothesis sums and class sums — is combined
  /// elementwise.  The integer sums are exact, and on
  /// ADC-quantized traces the double sums are too, so merging is
  /// associative and bit-identical to a single engine fed shard A's traces
  /// then shard B's (the sharded-campaign contract; see docs/TESTING.md and
  /// tests/test_pbt_merge.cpp).  Throws std::invalid_argument on mismatch.
  void merge(const CpaEngine& other);
  /// Folds a serialize() snapshot straight into this engine, without
  /// building a second engine from it: bit-identical to
  /// merge(deserialize(blob)).  Every check deserialize() runs (CRC, magic,
  /// tags, byte positions, exact payload size) and the geometry match pass
  /// before the first element is added, so a throw leaves this engine
  /// untouched: std::runtime_error on a corrupt blob, std::invalid_argument
  /// on a well-formed snapshot of another geometry.
  void merge(std::span<const unsigned char> blob);

  /// Byte-exact snapshot of the engine state for the distributed campaign
  /// protocol: geometry (samples, byte positions, model) plus every
  /// accumulator array, raw doubles/int64s with a trailing CRC-32.  The
  /// u32 after the magic is an engine tag, always 1: tag 0 marked the
  /// per-guess cross sums of an older streaming engine, and any tag but 1
  /// is rejected with std::runtime_error.  Any
  /// buffered tile is flushed first, so the blob is independent of the
  /// batch size.  deserialize() reconstructs an engine whose merge() and
  /// report() are bit-identical to the original — it parses the header,
  /// constructs the engine and folds the arrays in through the same code as
  /// merge(blob); corrupt, truncated or wrong-magic payloads throw
  /// std::runtime_error instead of merging garbage.
  ///
  /// The Writer overload is the one serializer: it streams the snapshot
  /// straight from the accumulator arrays into `out` (a file, for a
  /// distributed worker) and returns its seal, the CRC-32 of the bytes
  /// before the trailer; the blob overload is that stream into memory.
  std::uint32_t serialize(wire::Writer& out) const;
  std::vector<unsigned char> serialize() const;
  static CpaEngine deserialize(std::span<const unsigned char> blob);

  struct ByteReport {
    int byte_pos = 0;
    /// max_s |corr(g, s)| for every guess.
    std::array<double, 256> peak_abs_corr{};
    /// Guess with the highest peak.
    int best_guess() const;
    /// Rank of `correct` (1 = recovered).
    int rank(std::uint8_t correct) const;
  };

  /// Correlation report for every attacked byte (O(bytes*256*samples)).
  /// Scoring against a known key lives in evaluate_attack_checkpoint
  /// (analysis/attacks.hpp).
  std::vector<ByteReport> report() const;

 private:
  /// Drains the tile into the class sums (byte-sharded, class-sorted).
  void flush() const;
  /// Adds a validated snapshot's `n` and arrays (`arrays` positioned at the
  /// first one, holding exactly this geometry's payload) into this engine.
  void fold(std::uint64_t n, wire::Reader& arrays);

  std::size_t samples_;
  std::vector<int> bytes_;
  aes::LeakageModel model_;
  std::size_t batch_;
  std::size_t n_ = 0;

  // Per-sample trace sums (updated during flush).
  mutable std::vector<double> sum_t_, sum_t2_;
  // Per (byte, guess) scalar hypothesis sums.  h is an integer in 0..8, so
  // int64 accumulation is exact and trivially order-independent (updated
  // during flush).
  mutable std::vector<std::int64_t> sum_h_, sum_h2_;

  // Class sums (see file comment).
  // Last-round: W_[b][s] = Σ_i w(y_i)·t_i[s] and
  // D_[b][x][k][s] = Σ_{i: x_i=x} (1 − 2·bit_k(y_i))·t_i[s].
  // First-round: h has no y term, so W_ is unused and the bit planes
  // coincide: D_[b][x][s] = Σ_{i: x_i=x} t_i[s].
  mutable std::vector<double> class_w_;
  mutable std::vector<double> class_d_;
  // Tile of buffered traces (kept as raw float — no per-trace double copy)
  // and their per-byte class inputs x (and y for the last-round model),
  // from which the flush also rebuilds the hypothesis rows.
  mutable std::vector<float> tile_traces_;
  mutable std::vector<std::uint8_t> tile_x_, tile_y_;
  mutable std::size_t tile_count_ = 0;
};

}  // namespace rftc::analysis
