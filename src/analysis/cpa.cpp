#include "analysis/cpa.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "aes/gf256.hpp"
#include "aes/leakage.hpp"
#include "obs/obs.hpp"
#include "simd/simd.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/wire.hpp"

namespace rftc::analysis {

namespace {

/// Widest report panel in samples: a [256][kPanel] panel is 256 KiB.
constexpr std::size_t kPanel = 128;
/// Report shards a few attacked bytes should still spread over, so a
/// one-byte report does not run on one thread.
constexpr std::size_t kMinReportShards = 8;
/// Traces a flush shard counts into its 16-bit hypothesis counters before
/// spilling them into the int64 sums: h <= 8, so h^2 * 1,023 < 2^16.
constexpr std::size_t kHypSpill = 1'023;

obs::Counter& flush_counter() {
  static obs::Counter& c = obs::Registry::global().counter("cpa.flushes");
  return c;
}

obs::Counter& report_counter() {
  static obs::Counter& c = obs::Registry::global().counter("cpa.reports");
  return c;
}

/// WHT spectra of the model's guess kernels.  report() computes
/// sum_ht[g] − (W term) as the XOR-convolution Σ_x m(x ^ g) · D[x]; in the
/// transform domain that is a pointwise product with these spectra.
struct KernelSpectra {
  /// Bit planes: 8 kernels m_k(z) = bit_k(InvSbox(z)) for the last-round
  /// model; a single kernel m(z) = HW(Sbox(z)) for the first-round model.
  int planes = 0;
  std::array<std::array<double, 256>, 8> mhat{};
};

const KernelSpectra& kernel_spectra(aes::LeakageModel model) {
  static const KernelSpectra last = [] {
    KernelSpectra ks;
    ks.planes = 8;
    for (int k = 0; k < 8; ++k) {
      for (std::size_t z = 0; z < 256; ++z)
        ks.mhat[static_cast<std::size_t>(k)][z] =
            static_cast<double>((gf::kInvSbox[z] >> k) & 1);
      simd::wht256(ks.mhat[static_cast<std::size_t>(k)].data(), 1);
    }
    return ks;
  }();
  static const KernelSpectra first = [] {
    KernelSpectra ks;
    ks.planes = 1;
    for (std::size_t z = 0; z < 256; ++z)
      ks.mhat[0][z] = static_cast<double>(
          std::popcount(static_cast<unsigned>(gf::kSbox[z])));
    simd::wht256(ks.mhat[0].data(), 1);
    return ks;
  }();
  return model == aes::LeakageModel::kLastRoundHd ? last : first;
}

/// Samples per report block — a report shard is one (byte, block) — as a
/// pure function of the geometry: kPanel, or narrower (down to 16, in
/// whole AVX2 vectors) until the report has kMinReportShards shards.
std::size_t report_block(std::size_t n_bytes, std::size_t samples) {
  const std::size_t blocks = (kMinReportShards + n_bytes - 1) / n_bytes;
  const std::size_t width = (samples + blocks - 1) / blocks;
  return std::clamp<std::size_t>((width + 3) & ~std::size_t{3}, 16, kPanel);
}

/// Throws std::invalid_argument unless a tile of `batch` traces is
/// addressable: the class sort indexes it with uint32_t, and neither
/// batch * samples nor batch * bytes may wrap.
void check_batch(std::size_t batch, std::size_t samples, std::size_t n_bytes) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (batch == 0) throw std::invalid_argument("CpaEngine: zero batch size");
  if (batch > std::numeric_limits<std::uint32_t>::max() ||
      batch > kMax / samples || batch > kMax / n_bytes)
    throw std::invalid_argument("CpaEngine: batch size overflows the tile");
}

}  // namespace

std::size_t CpaEngine::default_batch_size() {
  return env::cpa_batch();
}

CpaEngine::CpaEngine(std::size_t samples, std::vector<int> byte_positions,
                     aes::LeakageModel model)
    : samples_(samples),
      bytes_(std::move(byte_positions)),
      model_(model),
      batch_(default_batch_size()) {
  if (samples_ == 0) throw std::invalid_argument("CpaEngine: zero samples");
  if (bytes_.empty()) throw std::invalid_argument("CpaEngine: no bytes");
  for (const int b : bytes_)
    if (b < 0 || b > 15)
      throw std::invalid_argument("CpaEngine: byte position out of range");
  check_batch(batch_, samples_, bytes_.size());
  sum_t_.assign(samples_, 0.0);
  sum_t2_.assign(samples_, 0.0);
  sum_h_.assign(bytes_.size() * 256, 0);
  sum_h2_.assign(bytes_.size() * 256, 0);
  const std::size_t planes =
      static_cast<std::size_t>(kernel_spectra(model_).planes);
  if (model_ == aes::LeakageModel::kLastRoundHd)
    class_w_.assign(bytes_.size() * samples_, 0.0);
  class_d_.assign(bytes_.size() * 256 * planes * samples_, 0.0);
  tile_traces_.resize(batch_ * samples_);
  tile_x_.resize(batch_ * bytes_.size());
  tile_y_.resize(batch_ * bytes_.size());
}

void CpaEngine::set_batch_size(std::size_t batch) {
  check_batch(batch, samples_, bytes_.size());
  flush();
  batch_ = batch;
  tile_traces_.resize(batch_ * samples_);
  tile_x_.resize(batch_ * bytes_.size());
  tile_y_.resize(batch_ * bytes_.size());
}

void CpaEngine::merge(const CpaEngine& other) {
  if (other.samples_ != samples_ || other.bytes_ != bytes_ ||
      other.model_ != model_)
    throw std::invalid_argument("CpaEngine::merge: engine geometry mismatch");
  // Drain both tiles so every buffered trace is in the class sums before the
  // elementwise fold.  flush() only mutates the mutable accumulation state,
  // so calling it through the const reference is fine.
  flush();
  other.flush();
  const auto fold = [](auto& into, const auto& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
  };
  n_ += other.n_;
  fold(sum_t_, other.sum_t_);
  fold(sum_t2_, other.sum_t2_);
  fold(sum_h_, other.sum_h_);
  fold(sum_h2_, other.sum_h2_);
  fold(class_w_, other.class_w_);
  fold(class_d_, other.class_d_);
}

namespace {

constexpr char kCpaMagic[9] = "RFTCCPA1";
/// The engine tag after the magic.  0 was the per-guess cross sums of an
/// older streaming engine; such snapshots are refused, not misread.
constexpr std::uint32_t kEngineTag = 1;

/// A CPA snapshot whose CRC, magic, tags, byte positions and payload size
/// all checked out; `arrays` is positioned at the first accumulator array
/// and holds exactly the payload the geometry declares.
struct CpaSnapshot {
  aes::LeakageModel model;
  std::size_t samples;
  std::vector<int> bytes;
  std::uint64_t n;
  wire::Reader arrays;
};

/// The one CPA blob parser behind deserialize() and merge(blob).
CpaSnapshot parse_snapshot(std::span<const unsigned char> blob,
                           const std::string& what) {
  wire::Reader r(blob, what);
  r.check_crc();
  r.expect_magic(kCpaMagic);
  if (r.u32() != kEngineTag)
    throw std::runtime_error(what + ": not a class-sum CPA snapshot");
  const std::uint32_t model_tag = r.u32();
  if (model_tag > 1) throw std::runtime_error(what + ": unknown model tag");
  const std::uint64_t samples = r.u64();
  const std::uint64_t n_bytes = r.u64();
  const std::uint64_t n = r.u64();
  if (samples == 0 || n_bytes == 0 || n_bytes > 16)
    throw std::runtime_error(what + ": implausible geometry");
  std::vector<int> bytes(static_cast<std::size_t>(n_bytes));
  for (int& b : bytes) b = static_cast<int>(r.u32());
  for (const int b : bytes)
    if (b < 0 || b > 15)
      throw std::runtime_error(what + ": byte position out of range");
  // The arrays must fill the rest of the blob exactly: 2 * 256 hypothesis
  // sums per byte, plus per sample the two trace sums and the class sums.
  // Checked by division, so the header's sample count never enters a
  // product that could overflow, and before any engine allocates: a forged
  // header cannot cost more memory than the blob carries.
  const std::uint64_t cross_per_byte = model_tag == 0 ? 1 + 8 * 256 : 256;
  const std::uint64_t per_sample = 2 + n_bytes * cross_per_byte;
  const std::uint64_t fixed_words = 2 * 256 * n_bytes;
  const std::uint64_t words = r.remaining() / sizeof(double);
  if (r.remaining() % sizeof(double) != 0 || words < fixed_words ||
      (words - fixed_words) % per_sample != 0 ||
      (words - fixed_words) / per_sample != samples)
    throw std::runtime_error(what +
                             ": payload size does not match the geometry");
  return {model_tag == 0 ? aes::LeakageModel::kLastRoundHd
                         : aes::LeakageModel::kFirstRoundHw,
          static_cast<std::size_t>(samples), std::move(bytes), n,
          std::move(r)};
}

}  // namespace

std::vector<unsigned char> CpaEngine::serialize() const {
  flush();  // the blob must not depend on tile boundaries
  const std::size_t cross = class_w_.size() + class_d_.size();
  std::vector<unsigned char> out;
  out.reserve(8 + 2 * sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t) +
              bytes_.size() * sizeof(std::uint32_t) +
              (sum_t_.size() + sum_t2_.size() + sum_h_.size() + sum_h2_.size() +
               cross) *
                  sizeof(double) +
              sizeof(std::uint32_t));
  wire::put_magic(out, kCpaMagic);
  wire::put_u32(out, kEngineTag);
  wire::put_u32(out, model_ == aes::LeakageModel::kLastRoundHd ? 0u : 1u);
  wire::put_u64(out, samples_);
  wire::put_u64(out, bytes_.size());
  wire::put_u64(out, n_);
  for (const int b : bytes_) wire::put_u32(out, static_cast<std::uint32_t>(b));
  wire::put_array(out, sum_t_.data(), sum_t_.size());
  wire::put_array(out, sum_t2_.data(), sum_t2_.size());
  wire::put_array(out, sum_h_.data(), sum_h_.size());
  wire::put_array(out, sum_h2_.data(), sum_h2_.size());
  wire::put_array(out, class_w_.data(), class_w_.size());
  wire::put_array(out, class_d_.data(), class_d_.size());
  wire::seal(out);
  return out;
}

CpaEngine CpaEngine::deserialize(std::span<const unsigned char> blob) {
  CpaSnapshot snap = parse_snapshot(blob, "CpaEngine::deserialize");
  CpaEngine eng(snap.samples, std::move(snap.bytes), snap.model);
  eng.fold(snap.n, snap.arrays);
  return eng;
}

void CpaEngine::merge(std::span<const unsigned char> blob) {
  CpaSnapshot snap = parse_snapshot(blob, "CpaEngine::merge");
  if (snap.samples != samples_ || snap.bytes != bytes_ ||
      snap.model != model_)
    throw std::invalid_argument("CpaEngine::merge: snapshot geometry mismatch");
  flush();
  fold(snap.n, snap.arrays);
}

void CpaEngine::fold(std::uint64_t n, wire::Reader& arrays) {
  n_ += static_cast<std::size_t>(n);
  arrays.add_array(sum_t_.data(), sum_t_.size());
  arrays.add_array(sum_t2_.data(), sum_t2_.size());
  arrays.add_array(sum_h_.data(), sum_h_.size());
  arrays.add_array(sum_h2_.data(), sum_h2_.size());
  arrays.add_array(class_w_.data(), class_w_.size());
  arrays.add_array(class_d_.data(), class_d_.size());
}

void CpaEngine::add(const aes::Block& ciphertext,
                    std::span<const float> trace) {
  if (model_ != aes::LeakageModel::kLastRoundHd)
    throw std::logic_error(
        "CpaEngine::add: first-round model needs the plaintext overload");
  add(aes::Block{}, ciphertext, trace);
}

void CpaEngine::add(const aes::Block& plaintext, const aes::Block& ciphertext,
                    std::span<const float> trace) {
  if (trace.size() != samples_)
    throw std::invalid_argument("CpaEngine::add: sample count mismatch");
  ++n_;
  const std::size_t i = tile_count_;
  std::memcpy(tile_traces_.data() + i * samples_, trace.data(),
              samples_ * sizeof(float));
  // Class inputs: the hypothesis for guess g is a function of (x ^ g, y)
  // only, so the flush needs nothing else of the two blocks.
  std::uint8_t* x = tile_x_.data() + i * bytes_.size();
  std::uint8_t* y = tile_y_.data() + i * bytes_.size();
  for (std::size_t bi = 0; bi < bytes_.size(); ++bi) {
    const int p = bytes_[bi];
    if (model_ == aes::LeakageModel::kLastRoundHd) {
      x[bi] = ciphertext[static_cast<std::size_t>(p)];
      y[bi] = ciphertext[static_cast<std::size_t>(aes::shift_rows_source(p))];
    } else {
      x[bi] = plaintext[static_cast<std::size_t>(p)];
      y[bi] = 0;
    }
  }
  if (++tile_count_ == batch_) flush();
}

void CpaEngine::flush() const {
  const std::size_t nb = tile_count_;
  if (nb == 0) return;
  tile_count_ = 0;
  flush_counter().inc();
  RFTC_OBS_SPAN(span, "cpa", "flush");
  span.arg("traces", static_cast<double>(nb));

  const bool last_round = model_ == aes::LeakageModel::kLastRoundHd;
  const std::size_t n_bytes = bytes_.size();
  const std::size_t planes = last_round ? 8 : 1;
  // One shard per attacked byte plus one for the per-sample trace sums:
  // shards are a pure function of the byte count and own disjoint outputs.
  // Every accumulator element still receives its traces in trace order, so
  // the sums are bit-identical for any input, thread count or tile size.
  par::parallel_for(0, n_bytes + 1, 1, [&](std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) {
      if (j == n_bytes) {
        for (std::size_t i = 0; i < nb; ++i)
          simd::accumulate_sums_f(tile_traces_.data() + i * samples_,
                                  sum_t_.data(), sum_t2_.data(), samples_);
        continue;
      }
      const std::size_t bi = j;
      if (last_round) {
        double* wrow = class_w_.data() + bi * samples_;
        for (std::size_t i = 0; i < nb; ++i) {
          const unsigned y = tile_y_[i * n_bytes + bi];
          simd::axpy_f(static_cast<double>(std::popcount(y)),
                       tile_traces_.data() + i * samples_, wrow, samples_);
        }
      }
      // Stable counting sort of the tile by class x, so each class's
      // `planes` rows stay cache-resident while all of its traces in the
      // tile land in them, still in trace order.
      const auto x_of = [&](std::size_t i) {
        return tile_x_[i * n_bytes + bi];
      };
      std::array<std::uint32_t, 257> start{};
      for (std::size_t i = 0; i < nb; ++i) ++start[x_of(i) + 1u];
      for (std::size_t x = 0; x < 256; ++x) start[x + 1] += start[x];
      std::array<std::uint32_t, 257> next = start;
      std::vector<std::uint32_t> order(nb);
      for (std::size_t i = 0; i < nb; ++i)
        order[next[x_of(i)]++] = static_cast<std::uint32_t>(i);

      // The byte's hypothesis sums ride along: every trace's 256-guess row
      // is counted into 16-bit lanes, spilled into the exact int64 sums
      // before they can wrap.  Integer sums do not care about order.
      alignas(32) std::uint8_t row[256];
      alignas(32) std::uint16_t h1[256] = {};
      alignas(32) std::uint16_t h2[256] = {};
      std::size_t counted = 0;
      const auto spill = [&] {
        std::int64_t* sh = sum_h_.data() + bi * 256;
        std::int64_t* sh2 = sum_h2_.data() + bi * 256;
        for (std::size_t g = 0; g < 256; ++g) {
          sh[g] += h1[g];
          sh2[g] += h2[g];
          h1[g] = h2[g] = 0;
        }
        counted = 0;
      };

      for (std::size_t x = 0; x < 256; ++x) {
        double* dx = class_d_.data() + (bi * 256 + x) * planes * samples_;
        for (std::uint32_t r = start[x]; r < start[x + 1]; ++r) {
          const std::size_t i = order[r];
          const float* tr = tile_traces_.data() + i * samples_;
          if (last_round) {
            const unsigned y = tile_y_[i * n_bytes + bi];
            for (std::size_t k = 0; k < 8; ++k) {
              if ((y >> k) & 1)
                simd::sub_f(tr, dx + k * samples_, samples_);
              else
                simd::add_f(tr, dx + k * samples_, samples_);
            }
            aes::last_round_hypothesis_row_into(
                static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y),
                row);
          } else {
            simd::add_f(tr, dx, samples_);
            aes::first_round_hypothesis_row_into(static_cast<std::uint8_t>(x),
                                                 row);
          }
          for (std::size_t g = 0; g < 256; ++g) {
            h1[g] = static_cast<std::uint16_t>(h1[g] + row[g]);
            h2[g] = static_cast<std::uint16_t>(h2[g] + row[g] * row[g]);
          }
          if (++counted == kHypSpill) spill();
        }
      }
      spill();
    }
  });
}

int CpaEngine::ByteReport::best_guess() const {
  return static_cast<int>(std::max_element(peak_abs_corr.begin(),
                                           peak_abs_corr.end()) -
                          peak_abs_corr.begin());
}

int CpaEngine::ByteReport::rank(std::uint8_t correct) const {
  const double c = peak_abs_corr[correct];
  int rank = 1;
  for (int g = 0; g < 256; ++g)
    if (peak_abs_corr[static_cast<std::size_t>(g)] > c) ++rank;
  return rank;
}

std::vector<CpaEngine::ByteReport> CpaEngine::report() const {
  report_counter().inc();
  RFTC_OBS_SPAN(span, "cpa", "report");
  span.arg("n", static_cast<double>(n_));
  flush();
  std::vector<ByteReport> out(bytes_.size());
  const double n = static_cast<double>(n_);
  for (std::size_t bi = 0; bi < bytes_.size(); ++bi)
    out[bi].byte_pos = bytes_[bi];

  const KernelSpectra& ks = kernel_spectra(model_);
  const std::size_t planes = static_cast<std::size_t>(ks.planes);
  const bool last_round = model_ == aes::LeakageModel::kLastRoundHd;
  const std::size_t block = report_block(bytes_.size(), samples_);
  const std::size_t n_blocks = (samples_ + block - 1) / block;
  const std::size_t scratch_len = 2 * 256 * std::min(block, samples_);

  // Per-(byte, sample-block) peak partials, max-merged per guess below.
  // max() is order-independent, so the merge order cannot matter; shards
  // write disjoint rows.
  std::vector<double> partial(bytes_.size() * n_blocks * 256, 0.0);

  par::parallel_for(
      0, bytes_.size() * n_blocks, 1, [&](std::size_t j0, std::size_t j1) {
        // Two [256][sb] panels per worker (at most 512 KiB), kept across
        // shards and reports.
        thread_local std::vector<double> scratch;
        if (scratch.size() < scratch_len) scratch.resize(scratch_len);
        for (std::size_t j = j0; j < j1; ++j) {
          const std::size_t bi = j / n_blocks;
          const std::size_t s0 = (j % n_blocks) * block;
          const std::size_t sb = std::min(block, samples_ - s0);
          double* panel = scratch.data();
          double* acc = panel + 256 * sb;
          // Materialise sum_ht[g][s0..s0+sb) for all 256 guesses at once:
          // an XOR-convolution of the kernel bit planes with the class
          // sums, done as pointwise products in the WHT domain (one
          // forward transform per plane, one inverse for the total).
          std::fill(acc, acc + 256 * sb, 0.0);
          for (std::size_t k = 0; k < planes; ++k) {
            const std::size_t stride = planes * samples_;
            for (std::size_t x = 0; x < 256; ++x)
              std::memcpy(panel + x * sb,
                          class_d_.data() + (bi * 256 + x) * stride +
                              k * samples_ + s0,
                          sb * sizeof(double));
            simd::wht256(panel, sb);
            const std::array<double, 256>& mk = ks.mhat[k];
            for (std::size_t v = 0; v < 256; ++v) {
              const double m = mk[v];
              if (m == 0.0) continue;
              simd::axpy(m, panel + v * sb, acc + v * sb, sb);
            }
          }
          simd::wht256(acc, sb);  // inverse = forward, then the 2^-8 scale
          const double* wrow =
              last_round ? class_w_.data() + bi * samples_ + s0 : nullptr;
          double* peaks = partial.data() + j * 256;
          for (std::size_t g = 0; g < 256; ++g) {
            const double sh = static_cast<double>(sum_h_[bi * 256 + g]);
            const double sh2 = static_cast<double>(sum_h2_[bi * 256 + g]);
            peaks[g] = simd::peak_abs_correlation_scaled(
                n, sh, sh2, sum_t_.data() + s0, sum_t2_.data() + s0,
                acc + g * sb, wrow, 0x1.0p-8, sb);
          }
        }
      });

  for (std::size_t bi = 0; bi < bytes_.size(); ++bi) {
    for (std::size_t blk = 0; blk < n_blocks; ++blk) {
      const double* peaks = partial.data() + (bi * n_blocks + blk) * 256;
      for (std::size_t g = 0; g < 256; ++g)
        out[bi].peak_abs_corr[g] = std::max(out[bi].peak_abs_corr[g],
                                            peaks[g]);
    }
  }
  return out;
}

}  // namespace rftc::analysis
