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
// Exact integer sums: every simulator trace is an ADC code times the LSB
// 400/2^bits mV (box averages included), so each sample is v = k·2^-e for
// a small integer k.  The first flush scans its tile for the coarsest such
// grid e shared by all samples; when every |k| fits int16 the engine keeps
// int32 class sums and int64 W/trace sums in units of 2^-e (2^-2e for
// sum_t2).  Each flush then quantizes its tile to int16 codes in parallel
// and runs the integer twins of the plane, W and trace-sum kernels (8
// lanes per AVX2 op, half the bytes of the double rows).  A later tile
// off that grid rescales every sum to a finer one when they all still
// fit, and otherwise — and when a flush or merge could carry a class sum
// past int32 — the engine promotes itself once, by exact conversion, to
// double sums.  It never rounds, and it never holds both representations
// outside that one promotion.  PCA and FFT features are off any int16
// grid, so their first flush allocates only the double sums; DTW means
// that stay on a grid take the integer sums.
//
// Determinism: the report reads each integer sum as the double k·2^-e,
// which is exact, so it sees the very values the double sums hold whenever
// those are exact — on ADC-quantized traces, up to 2^53 units per sum:
// both representations give the same report bits.  Double sums accumulate
// every element in trace order regardless of tile boundaries (the class
// sort is stable; W and the trace sums are walked in plain trace order),
// integer sums are order-free, and the hypothesis sums are exact integers
// either way.  Every WHT element sees the same add/sub sequence whatever
// the panel width or kernel backend, and flush and report shards are a
// pure function of (bytes, samples).  So results are bit-identical for any
// input — not only quantized traces — any RFTC_THREADS and any batch size,
// and on raw ADC traces they are bit-identical to the textbook per-trace
// accumulator — the scalar oracle in tests/cpa_oracle.hpp, which the
// golden determinism test and fig4_cpa_speedup compare the engine against.
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

  /// True while the sums are exact integers (see the file comment).
  bool integer_sums() const { return rep_ == Rep::kInteger; }

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
  /// elementwise.  Integer sums add as integers (the coarser grid shifted
  /// onto the finer one); an integer engine meeting double sums, or a sum
  /// that would leave its type, promotes first.  Integer sums are exact,
  /// and on ADC-quantized traces the double sums are too, so merging is
  /// associative and bit-identical to a single engine fed shard A's traces
  /// then shard B's (the sharded-campaign contract; see docs/TESTING.md and
  /// tests/test_pbt_merge.cpp).  Throws std::invalid_argument on mismatch.
  void merge(const CpaEngine& other);
  /// Folds a serialize() snapshot straight into this engine, without
  /// building a second engine from it: bit-identical to
  /// merge(deserialize(blob)).  Every check deserialize() runs (CRC, magic,
  /// tags, grid, byte positions, exact payload size, canonical form and
  /// the bounds on every sum) and the geometry match pass before the first
  /// element is added, so a throw leaves this engine untouched:
  /// std::runtime_error on a corrupt blob, std::invalid_argument on a
  /// well-formed snapshot of another geometry.
  void merge(std::span<const unsigned char> blob);

  /// Byte-exact snapshot of the engine state for the distributed campaign
  /// protocol: geometry (samples, byte positions, model) plus every
  /// accumulator array with a trailing CRC-32.  The snapshot is canonical:
  /// it depends on the sums alone, not on the representation, tile size or
  /// merge history that produced them.  The u32 after the magic is an
  /// engine tag.  Tag 3: every sum is an integer on one grid 2^-e (sum_t2
  /// on 2^-2e) inside its integer type; the arrays are int64 except the
  /// int32 class sums, on the coarsest grid that holds every sum.  Tag 1
  /// otherwise: raw doubles and int64s.  A tag-1 snapshot of grid sums, as
  /// builds before tag 3 wrote, still parses and re-serializes as tag 3.
  /// Tag 0 marked the per-guess cross sums of an older streaming engine;
  /// it, tag 2 and non-canonical tag-3 snapshots are rejected with
  /// std::runtime_error.  Any buffered tile is flushed first.
  /// deserialize() reconstructs an engine whose merge() and report() are
  /// bit-identical to the original — it parses the header, constructs the
  /// engine and folds the arrays in through the same code as merge(blob);
  /// corrupt, truncated or wrong-magic payloads throw std::runtime_error
  /// instead of merging garbage.
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
  /// Where the sums live: none yet (no trace flushed), integers on the
  /// grid 2^-exp_, or doubles.
  enum class Rep : std::uint8_t { kPending, kInteger, kDouble };

  /// Per-sample trace sums t/t2 and class sums (see the file comment).
  /// Last-round: w[b][s] = Σ_i w(y_i)·t_i[s] and
  /// d[b][x][k][s] = Σ_{i: x_i=x} (1 − 2·bit_k(y_i))·t_i[s].
  /// First-round: h has no y term, so w is empty and the bit planes
  /// coincide: d[b][x][s] = Σ_{i: x_i=x} t_i[s].
  template <class Wide, class Row>
  struct SumArrays {
    std::vector<Wide> t, t2, w;
    std::vector<Row> d;
  };
  struct SumsView;

  /// Drains the tile into the sums (byte-sharded, class-sorted).
  void flush() const;
  template <class In, class Wide, class Row>
  void flush_tile(const In* tile, SumArrays<Wide, Row>& sums,
                  std::uint32_t* bound, std::uint32_t kmax) const;
  /// Quantizes the tile into tile_codes_ when the sums can take it as
  /// integers — picking the grid on the first flush, rescaling to a finer
  /// one when needed — and returns true; otherwise moves to double sums
  /// and returns false.
  bool codes_for_tile() const;
  /// Codes of the tile on the grid 2^-e, in parallel; their largest
  /// magnitude, or -1 when a sample is off that grid or past int16.
  std::int64_t quantize_tile(int e) const;
  /// True when flushing the tile's codes, of magnitude at most `kmax`,
  /// keeps every sum in its type.
  bool tile_fits(std::uint64_t kmax) const;
  /// Moves every integer sum onto the grid 2^-(exp_ + d), d > 0, if they
  /// all still fit; false, changing nothing, otherwise.
  bool rescale(int d) const;
  /// Integer sums to doubles, exactly; frees the integers.
  void promote() const;
  template <class Wide, class Row>
  void allocate(SumArrays<Wide, Row>& sums) const;
  /// Adds `n` and another engine's or a validated snapshot's sums.
  void fold(std::uint64_t n, const SumsView& v);
  std::int64_t max_t2() const;

  std::size_t samples_;
  std::vector<int> bytes_;
  aes::LeakageModel model_;
  std::size_t batch_;
  std::size_t n_ = 0;

  // Per (byte, guess) scalar hypothesis sums.  h is an integer in 0..8, so
  // int64 accumulation is exact and trivially order-independent (updated
  // during flush).
  mutable std::vector<std::int64_t> sum_h_, sum_h2_;

  mutable Rep rep_ = Rep::kPending;
  mutable int exp_ = 0;
  mutable SumArrays<double, double> dsum_;
  mutable SumArrays<std::int64_t, std::int32_t> isum_;
  /// Integer sums: per (byte, class) bound on |d| over the class's planes
  /// and samples, at most INT32_MAX.
  mutable std::vector<std::uint32_t> bound_;

  // Tile of buffered traces (kept as raw float — no per-trace double
  // copy), on integer sums also as int16 codes on the grid, quantized in
  // parallel by the flush (with their largest magnitude), and the traces'
  // per-byte class inputs x (and y for the last-round model), from which
  // the flush also rebuilds the hypothesis rows.
  mutable std::vector<float> tile_traces_;
  mutable std::vector<std::int16_t> tile_codes_;
  mutable std::uint32_t tile_kmax_ = 0;
  mutable std::vector<std::uint8_t> tile_x_, tile_y_;
  mutable std::size_t tile_count_ = 0;
};

}  // namespace rftc::analysis
