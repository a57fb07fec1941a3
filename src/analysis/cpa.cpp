#include "analysis/cpa.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>
#include <stdexcept>

#include "aes/gf256.hpp"
#include "aes/leakage.hpp"
#include "obs/obs.hpp"
#include "simd/simd.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/wire.hpp"

namespace rftc::analysis {

namespace {

/// Widest report panel in samples: a [256][kPanel] panel is 256 KiB.
constexpr std::size_t kPanel = 128;
/// Report shards a few attacked bytes should still spread over, so a
/// one-byte report does not run on one thread.
constexpr std::size_t kMinReportShards = 8;
/// Tile rows a flush quantizes per parallel shard.
constexpr std::size_t kQuantizeGrain = 64;
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

// ---- Integer grid ----------------------------------------------------------

/// Grids 2^-e an integer engine or snapshot may use: k·2^-e and k·2^-2e
/// stay normal doubles for every integer k the sums can hold.
constexpr int kMinExp = -256, kMaxExp = 256;
/// Largest |code| in the int16 tile (symmetric, so negation cannot wrap).
constexpr std::uint32_t kCodeMax = 32'767;
/// Largest |class sum|: the int32 range, symmetric.
constexpr std::uint64_t kClassMax = 2'147'483'647;
/// Largest sum_t2 element.  |sum_t| <= sum_t2 and |W| <= 8 * sum_t2 hold
/// elementwise for integer codes, so this keeps all three inside int64.
constexpr std::uint64_t kT2Max = std::uint64_t{1} << 59;
/// Largest trace count a snapshot may claim.
constexpr std::uint64_t kMaxTraces = std::uint64_t{1} << 56;

/// x << s, or UINT64_MAX when that does not fit (0 stays 0 for any s).
std::uint64_t shl_sat(std::uint64_t x, int s) {
  if (x == 0) return 0;
  if (s >= 64 || x > (std::numeric_limits<std::uint64_t>::max() >> s))
    return std::numeric_limits<std::uint64_t>::max();
  return x << s;
}

std::uint64_t magnitude(std::int64_t v) {
  return v < 0 ? 0 - static_cast<std::uint64_t>(v)
               : static_cast<std::uint64_t>(v);
}

/// The coarsest grid that holds finite non-zero x: x·2^e is an odd integer.
int grid_exponent(double x) {
  int p = 0;
  const double f = std::frexp(std::fabs(x), &p);  // |x| = f·2^p, f in [.5, 1)
  const auto m = static_cast<std::uint64_t>(std::ldexp(f, 53));
  return 53 - p - std::countr_zero(m);
}

/// The coarsest grid that holds all of v (0 when all are zero); nullopt
/// when a value is not finite or needs a grid past kMaxExp.
std::optional<int> shared_exponent(const float* v, std::size_t n) {
  int e = kMinExp;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return std::nullopt;
    if (v[i] != 0.0f) e = std::max(e, grid_exponent(v[i]));
  }
  if (e > kMaxExp) return std::nullopt;
  return e;
}

/// Writes the codes v[i]·2^e to `out` and returns their largest magnitude,
/// or -1 when a value is not an integer of magnitude <= kCodeMax there.
std::int64_t quantize(const float* v, std::size_t n, int e,
                      std::int16_t* out) {
  const double scale = std::ldexp(1.0, e);
  const double lim = kCodeMax;
  bool ok = true;
  std::int32_t kmax = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double k = static_cast<double>(v[i]) * scale;
    const bool in = k >= -lim && k <= lim;  // false for NaN
    const auto c = static_cast<std::int32_t>(in ? k : 0.0);
    ok = ok && in && static_cast<double>(c) == k;
    out[i] = static_cast<std::int16_t>(c);
    kmax = std::max(kmax, c < 0 ? -c : c);
  }
  return ok ? kmax : -1;
}

/// Element i of an array of T at `p`, read unaligned.
template <class T>
T load(const unsigned char* p, std::size_t i) {
  T v;
  std::memcpy(&v, p + i * sizeof(T), sizeof(T));
  return v;
}

// ---- Flush kernels, by representation ---------------------------------------

/// rows[k * stride + i] ± x[i] for each plane k < planes: minus where bit
/// k of `negate` is set.
void add_planes(const float* x, double* rows, std::size_t stride,
                unsigned planes, unsigned negate, std::size_t n) {
  for (unsigned k = 0; k < planes; ++k) {
    if ((negate >> k) & 1)
      simd::sub_f(x, rows + k * stride, n);
    else
      simd::add_f(x, rows + k * stride, n);
  }
}
void add_planes(const std::int16_t* x, std::int32_t* rows,
                std::size_t stride, unsigned planes, unsigned negate,
                std::size_t n) {
  simd::add_planes_i16(x, rows, stride, planes, negate, n);
}
void weight_add(unsigned w, const float* x, double* y, std::size_t n) {
  simd::axpy_f(static_cast<double>(w), x, y, n);
}
void weight_add(unsigned w, const std::int16_t* x, std::int64_t* y,
                std::size_t n) {
  simd::axpy_i16(static_cast<std::int32_t>(w), x, y, n);
}
void trace_sums(const float* x, double* s1, double* s2, std::size_t n) {
  simd::accumulate_sums_f(x, s1, s2, n);
}
void trace_sums(const std::int16_t* x, std::int64_t* s1, std::int64_t* s2,
                std::size_t n) {
  simd::accumulate_sums_i16(x, s1, s2, n);
}

}  // namespace

/// Read-only sums of another engine or of a validated snapshot, each array
/// at a possibly unaligned address in host byte order.  Integral: int64
/// t/t2/w and int32 class sums in units of 2^-exp (t2: 2^-2exp), with
/// per-(byte, class) bounds on |d| and the largest t2.  Otherwise all
/// doubles.  w is null for the first-round model.
struct CpaEngine::SumsView {
  bool integral = false;
  int exp = 0;
  const unsigned char* t = nullptr;
  const unsigned char* t2 = nullptr;
  const unsigned char* h = nullptr;
  const unsigned char* h2 = nullptr;
  const unsigned char* w = nullptr;
  const unsigned char* d = nullptr;
  const std::uint32_t* bound = nullptr;
  std::uint64_t t2_max = 0;
};

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
  sum_h_.assign(bytes_.size() * 256, 0);
  sum_h2_.assign(bytes_.size() * 256, 0);
  tile_traces_.resize(batch_ * samples_);
  tile_x_.resize(batch_ * bytes_.size());
  tile_y_.resize(batch_ * bytes_.size());
}

template <class Wide, class Row>
void CpaEngine::allocate(SumArrays<Wide, Row>& sums) const {
  const std::size_t planes =
      static_cast<std::size_t>(kernel_spectra(model_).planes);
  sums.t.assign(samples_, 0);
  sums.t2.assign(samples_, 0);
  if (model_ == aes::LeakageModel::kLastRoundHd)
    sums.w.assign(bytes_.size() * samples_, 0);
  sums.d.assign(bytes_.size() * 256 * planes * samples_, 0);
}

void CpaEngine::set_batch_size(std::size_t batch) {
  check_batch(batch, samples_, bytes_.size());
  flush();
  batch_ = batch;
  tile_traces_.resize(batch_ * samples_);
  tile_x_.resize(batch_ * bytes_.size());
  tile_y_.resize(batch_ * bytes_.size());
}

std::int64_t CpaEngine::max_t2() const {
  std::int64_t m = 0;
  for (const std::int64_t v : isum_.t2) m = std::max(m, v);
  return m;
}

bool CpaEngine::rescale(int d) const {
  const std::int64_t t2 = max_t2();
  if (shl_sat(t2, 2 * d) > kT2Max) return false;
  for (const std::uint32_t b : bound_)
    if (shl_sat(b, d) > kClassMax) return false;
  // Each array shifts only when it holds a non-zero value; then the checks
  // above bound d well below the type's width.
  if (t2 > 0) {
    const std::int64_t f = std::int64_t{1} << d;
    for (std::int64_t& v : isum_.t) v *= f;
    for (std::int64_t& v : isum_.t2) v *= f * f;
    for (std::int64_t& v : isum_.w) v *= f;
  }
  const std::size_t group = isum_.d.size() / bound_.size();
  for (std::size_t c = 0; c < bound_.size(); ++c) {
    if (bound_[c] == 0) continue;
    bound_[c] <<= d;
    std::int32_t* row = isum_.d.data() + c * group;
    for (std::size_t i = 0; i < group; ++i) row[i] *= std::int32_t{1} << d;
  }
  exp_ += d;
  return true;
}

void CpaEngine::promote() const {
  const double scale = std::ldexp(1.0, -exp_);
  const auto widen = [&](const auto& from, std::vector<double>& to,
                         double s) {
    to.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i)
      to[i] = static_cast<double>(from[i]) * s;
  };
  widen(isum_.t, dsum_.t, scale);
  widen(isum_.t2, dsum_.t2, scale * scale);
  widen(isum_.w, dsum_.w, scale);
  widen(isum_.d, dsum_.d, scale);
  isum_ = {};
  std::vector<std::uint32_t>().swap(bound_);
  std::vector<std::int16_t>().swap(tile_codes_);
  rep_ = Rep::kDouble;
}

std::int64_t CpaEngine::quantize_tile(int e) const {
  const std::size_t nb = tile_count_;
  tile_codes_.resize(batch_ * samples_);
  std::vector<std::int64_t> kmax(nb);
  par::parallel_for(0, nb, kQuantizeGrain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      kmax[i] = quantize(tile_traces_.data() + i * samples_, samples_, e,
                         tile_codes_.data() + i * samples_);
  });
  std::int64_t m = 0;
  for (const std::int64_t k : kmax) m = k < 0 || m < 0 ? -1 : std::max(m, k);
  return m;
}

bool CpaEngine::codes_for_tile() const {
  if (rep_ == Rep::kDouble) return false;
  std::int64_t kmax = rep_ == Rep::kInteger ? quantize_tile(exp_) : -1;
  if (kmax < 0) {
    // The first tile, or one off the grid: the coarsest grid that holds
    // it, when that is this grid or finer and everything fits there.
    const std::optional<int> e =
        shared_exponent(tile_traces_.data(), tile_count_ * samples_);
    if (e && rep_ == Rep::kPending) {
      kmax = quantize_tile(*e);
      if (kmax >= 0) {
        exp_ = *e;
        allocate(isum_);
        bound_.assign(bytes_.size() * 256, 0);
        rep_ = Rep::kInteger;
      }
    } else if (e && *e > exp_) {
      kmax = quantize_tile(*e);
      if (kmax >= 0 && !rescale(*e - exp_)) kmax = -1;
    }
  }
  if (kmax >= 0 && tile_fits(static_cast<std::uint64_t>(kmax))) {
    tile_kmax_ = static_cast<std::uint32_t>(kmax);
    return true;
  }
  if (rep_ == Rep::kInteger)
    promote();
  else if (rep_ == Rep::kPending)
    allocate(dsum_);
  rep_ = Rep::kDouble;
  std::vector<std::int16_t>().swap(tile_codes_);
  return false;
}

bool CpaEngine::tile_fits(std::uint64_t kmax) const {
  const std::uint64_t nb = tile_count_;
  if (static_cast<std::uint64_t>(max_t2()) + nb * kmax * kmax > kT2Max)
    return false;
  const std::size_t n_bytes = bytes_.size();
  for (std::size_t bi = 0; bi < n_bytes; ++bi) {
    std::array<std::uint64_t, 256> count{};
    for (std::size_t i = 0; i < nb; ++i) ++count[tile_x_[i * n_bytes + bi]];
    for (std::size_t x = 0; x < 256; ++x)
      if (bound_[bi * 256 + x] + count[x] * kmax > kClassMax) return false;
  }
  return true;
}

void CpaEngine::merge(const CpaEngine& other) {
  if (other.samples_ != samples_ || other.bytes_ != bytes_ ||
      other.model_ != model_)
    throw std::invalid_argument("CpaEngine::merge: engine geometry mismatch");
  if (&other == this) return merge(CpaEngine(other));
  // Drain both tiles so every buffered trace is in the sums before the
  // elementwise fold.  flush() only mutates the mutable accumulation state,
  // so calling it through the const reference is fine.
  flush();
  other.flush();
  const auto bytes = [](const auto& v) {
    return reinterpret_cast<const unsigned char*>(v.data());
  };
  SumsView v;
  v.h = bytes(other.sum_h_);
  v.h2 = bytes(other.sum_h2_);
  switch (other.rep_) {
    case Rep::kPending:  // nothing flushed: every sum is zero
      return;
    case Rep::kInteger:
      v.integral = true;
      v.exp = other.exp_;
      v.t = bytes(other.isum_.t);
      v.t2 = bytes(other.isum_.t2);
      v.w = bytes(other.isum_.w);
      v.d = bytes(other.isum_.d);
      v.bound = other.bound_.data();
      v.t2_max = static_cast<std::uint64_t>(other.max_t2());
      break;
    case Rep::kDouble:
      v.t = bytes(other.dsum_.t);
      v.t2 = bytes(other.dsum_.t2);
      v.w = bytes(other.dsum_.w);
      v.d = bytes(other.dsum_.d);
      break;
  }
  if (model_ != aes::LeakageModel::kLastRoundHd) v.w = nullptr;
  fold(other.n_, v);
}

void CpaEngine::fold(std::uint64_t n, const SumsView& v) {
  n_ += static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < sum_h_.size(); ++i) {
    sum_h_[i] += load<std::int64_t>(v.h, i);
    sum_h2_[i] += load<std::int64_t>(v.h2, i);
  }
  if (rep_ == Rep::kPending) {  // adopt the other side's representation
    if (v.integral) {
      exp_ = v.exp;
      allocate(isum_);
      bound_.assign(bytes_.size() * 256, 0);
      rep_ = Rep::kInteger;
    } else {
      allocate(dsum_);
      rep_ = Rep::kDouble;
    }
  }
  if (rep_ == Rep::kInteger && v.integral && v.exp > exp_)
    (void)rescale(v.exp - exp_);
  if (rep_ == Rep::kInteger && v.integral && v.exp <= exp_) {
    // Integer add, the other side's values shifted onto this grid; it
    // happens only when every sum stays inside its type.
    const int d = exp_ - v.exp;
    bool fits = shl_sat(v.t2_max, 2 * d) <=
                kT2Max - static_cast<std::uint64_t>(max_t2());
    for (std::size_t c = 0; fits && c < bound_.size(); ++c)
      fits = shl_sat(v.bound[c], d) <= kClassMax - bound_[c];
    if (fits) {
      // A zero array needs no add: past d = 30 every array must be zero.
      if (d > 30) return;
      const auto add = [&](auto& into, const unsigned char* from, auto type,
                           int shift) {
        using T = decltype(type);
        using D = typename std::remove_reference_t<decltype(into)>::value_type;
        const std::int64_t f = std::int64_t{1} << shift;
        if (shift == 0)
          for (std::size_t i = 0; i < into.size(); ++i)
            into[i] += static_cast<D>(load<T>(from, i));
        else
          for (std::size_t i = 0; i < into.size(); ++i)
            into[i] += static_cast<D>(load<T>(from, i) * f);
      };
      add(isum_.t, v.t, std::int64_t{}, d);
      add(isum_.t2, v.t2, std::int64_t{}, 2 * d);
      if (v.w != nullptr) add(isum_.w, v.w, std::int64_t{}, d);
      add(isum_.d, v.d, std::int32_t{}, d);
      for (std::size_t c = 0; c < bound_.size(); ++c)
        bound_[c] += static_cast<std::uint32_t>(v.bound[c] << d);
      return;
    }
  }
  if (rep_ == Rep::kInteger) promote();
  // Double add; integer values convert exactly.
  const double scale = v.integral ? std::ldexp(1.0, -v.exp) : 1.0;
  const auto add = [&](std::vector<double>& into, const unsigned char* from,
                       auto type, double s) {
    using T = decltype(type);
    for (std::size_t i = 0; i < into.size(); ++i)
      into[i] += v.integral ? static_cast<double>(load<T>(from, i)) * s
                            : load<double>(from, i);
  };
  add(dsum_.t, v.t, std::int64_t{}, scale);
  add(dsum_.t2, v.t2, std::int64_t{}, scale * scale);
  if (v.w != nullptr) add(dsum_.w, v.w, std::int64_t{}, scale);
  add(dsum_.d, v.d, std::int32_t{}, scale);
}

namespace {

constexpr char kCpaMagic[9] = "RFTCCPA1";
/// Engine tags after the magic.  0 was the per-guess cross sums of an
/// older streaming engine and 2 was never written; such snapshots are
/// refused, not misread.
constexpr std::uint32_t kTagDouble = 1;
constexpr std::uint32_t kTagInteger = 3;

/// Bytes per class sum in a tag-3 snapshot.  Fixed, so snapshots of one
/// geometry have one size whatever their data.
constexpr std::uint32_t kClassSumWidth = 4;

/// The canonical grid of integer sums on 2^-exp, where `or_ctw` ORs every
/// t, w and d value and `or_t2` every t2 value: the coarsest grid that
/// keeps every value an integer (not below kMinExp; 0 when all are zero).
int canonical_exp(int exp, std::uint64_t or_ctw, std::uint64_t or_t2) {
  if (or_ctw == 0 && or_t2 == 0) return 0;
  int e = kMinExp;
  if (or_ctw != 0) e = std::max(e, exp - std::countr_zero(or_ctw));
  if (or_t2 != 0) e = std::max(e, exp - std::countr_zero(or_t2) / 2);
  return e;
}

/// A CPA snapshot whose CRC, magic, tags, grid, byte positions, payload
/// size and (tag 3) canonical form and bounds all checked out; `view`
/// points into the blob.
struct CpaSnapshot {
  aes::LeakageModel model;
  std::size_t samples;
  std::vector<int> bytes;
  std::uint64_t n;
  std::vector<std::uint32_t> bound;
};

/// The one CPA blob parser behind deserialize() and merge(blob).
template <class View>
CpaSnapshot parse_snapshot(std::span<const unsigned char> blob,
                           const std::string& what, View& view) {
  wire::Reader r(blob, what);
  r.check_crc();
  r.expect_magic(kCpaMagic);
  const std::uint32_t tag = r.u32();
  if (tag != kTagDouble && tag != kTagInteger)
    throw std::runtime_error(what + ": not a class-sum CPA snapshot");
  const std::uint32_t model_tag = r.u32();
  if (model_tag > 1) throw std::runtime_error(what + ": unknown model tag");
  const bool last_round = model_tag == 0;
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
  view.integral = tag == kTagInteger;
  if (view.integral) {
    view.exp = static_cast<std::int32_t>(r.u32());
    if (view.exp < kMinExp || view.exp > kMaxExp)
      throw std::runtime_error(what + ": grid exponent out of range");
    if (r.u32() != kClassSumWidth)
      throw std::runtime_error(what + ": unknown class-sum width");
  }
  // The arrays must fill the rest of the blob exactly: 2 * 256 int64
  // hypothesis sums per byte, plus per sample the two trace sums, W and
  // the class sums.  Checked by division, so the header's sample count
  // never enters a product that could overflow, and before any engine
  // allocates: a forged header cannot cost more memory than the blob
  // carries.
  const std::uint64_t planes = last_round ? 8 : 1;
  const std::uint64_t width = view.integral ? kClassSumWidth : 8;
  const std::uint64_t per_sample =
      8 * (2 + (last_round ? n_bytes : 0)) + width * n_bytes * 256 * planes;
  const std::uint64_t fixed = 8 * 2 * 256 * n_bytes;
  const std::uint64_t rest = r.remaining();
  if (rest < fixed || (rest - fixed) % per_sample != 0 ||
      (rest - fixed) / per_sample != samples)
    throw std::runtime_error(what +
                             ": payload size does not match the geometry");
  const std::size_t S = static_cast<std::size_t>(samples);
  const std::size_t nb = static_cast<std::size_t>(n_bytes);
  view.t = r.view(8 * S).data();
  view.t2 = r.view(8 * S).data();
  view.h = r.view(8 * 256 * nb).data();
  view.h2 = r.view(8 * 256 * nb).data();
  view.w = last_round ? r.view(8 * nb * S).data() : nullptr;
  const std::size_t group = static_cast<std::size_t>(planes) * S;
  view.d = r.view(static_cast<std::size_t>(width) * nb * 256 * group).data();
  const auto fail = [&](const char* why) {
    throw std::runtime_error(what + ": " + why);
  };
  // Hypotheses lie in 0..8, so n traces give 0 <= sum_h <= 8n and
  // 0 <= sum_h2 <= 64n; with n below 2^56 no merge of such sums can
  // overflow int64.
  if (n > kMaxTraces) fail("trace count out of bounds");
  for (std::size_t i = 0; i < 256 * nb; ++i) {
    const auto h = load<std::int64_t>(view.h, i);
    const auto h2 = load<std::int64_t>(view.h2, i);
    if (h < 0 || h2 < 0 || static_cast<std::uint64_t>(h) > 8 * n ||
        static_cast<std::uint64_t>(h2) > 64 * n)
      fail("hypothesis sums out of bounds");
  }
  CpaSnapshot snap{last_round ? aes::LeakageModel::kLastRoundHd
                              : aes::LeakageModel::kFirstRoundHw,
                   S, std::move(bytes), n, {}};
  if (!view.integral) return snap;

  // Integer sums: within the bounds an integer engine keeps, and in the
  // canonical form serialize() writes, so every accepted integer snapshot
  // round-trips byte for byte.  (A double snapshot of grid sums, as builds
  // before tag 3 wrote, is read as it is and written back as tag 3.)
  std::uint64_t or_ctw = 0, or_t2 = 0;
  view.t2_max = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const auto t2 = load<std::int64_t>(view.t2, s);
    const auto t = load<std::int64_t>(view.t, s);
    if (t2 < 0 || static_cast<std::uint64_t>(t2) > kT2Max ||
        magnitude(t) > static_cast<std::uint64_t>(t2))
      fail("trace sums out of bounds");
    for (std::size_t b = 0; view.w != nullptr && b < nb; ++b) {
      const auto w = load<std::int64_t>(view.w, b * S + s);
      if (magnitude(w) > 8 * static_cast<std::uint64_t>(t2))
        fail("trace sums out of bounds");
      or_ctw |= static_cast<std::uint64_t>(w);
    }
    or_ctw |= static_cast<std::uint64_t>(t);
    or_t2 |= static_cast<std::uint64_t>(t2);
    view.t2_max = std::max(view.t2_max, static_cast<std::uint64_t>(t2));
  }
  snap.bound.assign(nb * 256, 0);
  for (std::size_t c = 0; c < nb * 256; ++c) {
    std::int32_t lo = 0, hi = 0, o = 0;
    for (std::size_t i = c * group; i < (c + 1) * group; ++i) {
      const auto v = load<std::int32_t>(view.d, i);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      o |= v;
    }
    const std::uint64_t m = std::max(magnitude(lo), magnitude(hi));
    if (m > kClassMax) fail("class sum out of bounds");
    snap.bound[c] = static_cast<std::uint32_t>(m);
    or_ctw |= static_cast<std::uint32_t>(o);
  }
  if (canonical_exp(view.exp, or_ctw, or_t2) != view.exp)
    fail("integer sums not on their coarsest grid");
  view.bound = snap.bound.data();  // moving `snap` keeps the buffer
  return snap;
}

/// Writes `count` values from(i) as T, through a bounded buffer.
template <class T, class From>
void put_as(wire::Writer& out, std::size_t count, From from) {
  constexpr std::size_t kChunk = 8'192;
  std::array<T, kChunk> buf;
  for (std::size_t i0 = 0; i0 < count; i0 += kChunk) {
    const std::size_t len = std::min(kChunk, count - i0);
    for (std::size_t i = 0; i < len; ++i)
      buf[i] = static_cast<T>(from(i0 + i));
    out.array(buf.data(), len);
  }
}

}  // namespace

std::uint32_t CpaEngine::serialize(wire::Writer& out) const {
  flush();  // the blob must not depend on tile boundaries
  // The canonical grid of the sums, whatever holds them now: integer sums
  // by the trailing zeros of their ORs, double sums by the finest grid any
  // of them needs and then the integer bounds there.
  std::optional<int> grid;
  if (rep_ != Rep::kDouble) {
    std::uint64_t or_ctw = 0, or_t2 = 0;
    for (const std::int64_t v : isum_.t) or_ctw |= static_cast<std::uint64_t>(v);
    for (const std::int64_t v : isum_.w) or_ctw |= static_cast<std::uint64_t>(v);
    for (const std::int64_t v : isum_.t2) or_t2 |= static_cast<std::uint64_t>(v);
    std::uint32_t or_d = 0;
    for (const std::int32_t v : isum_.d) or_d |= static_cast<std::uint32_t>(v);
    grid = canonical_exp(exp_, or_ctw | or_d, or_t2);
  } else {
    const auto finest = [](const std::vector<double>& a, int& e) {
      for (const double v : a) {
        if (!std::isfinite(v)) return false;
        if (v != 0.0) e = std::max(e, grid_exponent(v));
      }
      return true;
    };
    constexpr int kNone = std::numeric_limits<int>::min();
    int e = kNone, e2 = kNone;
    if (finest(dsum_.t, e) && finest(dsum_.w, e) && finest(dsum_.d, e) &&
        finest(dsum_.t2, e2)) {
      // t2 sits on the square grid: half its own grid, rounded up.
      if (e2 != kNone) e = std::max(e, (e2 + 1) >> 1);
      e = e == kNone ? 0 : std::max(e, kMinExp);
      double dmax = 0.0;
      for (const double v : dsum_.d) dmax = std::max(dmax, std::fabs(v));
      const double sc = std::ldexp(1.0, e);
      bool ok = e <= kMaxExp && dmax * sc <= static_cast<double>(kClassMax);
      for (std::size_t s = 0; ok && s < samples_; ++s) {
        const double t2 = dsum_.t2[s] * sc * sc;
        ok = t2 >= 0.0 && t2 <= static_cast<double>(kT2Max) &&
             std::fabs(dsum_.t[s] * sc) <= t2;
        for (std::size_t b = 0; ok && b < dsum_.w.size() / samples_; ++b)
          ok = std::fabs(dsum_.w[b * samples_ + s] * sc) <= 8.0 * t2;
      }
      if (ok) grid = e;
    }
  }

  out.magic(kCpaMagic);
  out.u32(grid ? kTagInteger : kTagDouble);
  out.u32(model_ == aes::LeakageModel::kLastRoundHd ? 0u : 1u);
  out.u64(samples_);
  out.u64(bytes_.size());
  out.u64(n_);
  for (const int b : bytes_) out.u32(static_cast<std::uint32_t>(b));
  if (!grid) {
    out.array(dsum_.t.data(), dsum_.t.size());
    out.array(dsum_.t2.data(), dsum_.t2.size());
    out.array(sum_h_.data(), sum_h_.size());
    out.array(sum_h2_.data(), sum_h2_.size());
    out.array(dsum_.w.data(), dsum_.w.size());
    out.array(dsum_.d.data(), dsum_.d.size());
    return out.seal();
  }
  out.u32(static_cast<std::uint32_t>(*grid));
  out.u32(kClassSumWidth);
  const std::size_t n_w =
      model_ == aes::LeakageModel::kLastRoundHd ? bytes_.size() * samples_ : 0;
  const std::size_t n_d =
      bytes_.size() * 256 *
      static_cast<std::size_t>(kernel_spectra(model_).planes) * samples_;
  // Values on the canonical grid: exact shifts of the integer sums or
  // exact scalings of the double ones.
  const auto write = [&](auto type, std::size_t count, const auto& ints,
                         const std::vector<double>& dbls, int sq) {
    using T = decltype(type);
    if (rep_ == Rep::kDouble) {
      const double sc = std::ldexp(1.0, sq * *grid);
      return put_as<T>(out, count,
                       [&](std::size_t i) { return dbls[i] * sc; });
    }
    // All-zero sums have grid 0 whatever exp_ is; no other shift leaves
    // [0, 63].
    const int shift = sq * (exp_ - *grid);
    if (ints.empty() || shift < 0 || shift > 63)
      return put_as<T>(out, count, [](std::size_t) { return 0; });
    if (shift == 0) return out.array(ints.data(), count);
    return put_as<T>(out, count, [&](std::size_t i) {
      return static_cast<std::int64_t>(ints[i]) >> shift;
    });
  };
  write(std::int64_t{}, samples_, isum_.t, dsum_.t, 1);
  write(std::int64_t{}, samples_, isum_.t2, dsum_.t2, 2);
  out.array(sum_h_.data(), sum_h_.size());
  out.array(sum_h2_.data(), sum_h2_.size());
  write(std::int64_t{}, n_w, isum_.w, dsum_.w, 1);
  write(std::int32_t{}, n_d, isum_.d, dsum_.d, 1);
  return out.seal();
}

std::vector<unsigned char> CpaEngine::serialize() const {
  std::vector<unsigned char> out;
  wire::Writer w(wire::append_to(out));
  serialize(w);
  return out;
}

CpaEngine CpaEngine::deserialize(std::span<const unsigned char> blob) {
  SumsView v;
  CpaSnapshot snap = parse_snapshot(blob, "CpaEngine::deserialize", v);
  CpaEngine eng(snap.samples, std::move(snap.bytes), snap.model);
  eng.fold(snap.n, v);
  return eng;
}

void CpaEngine::merge(std::span<const unsigned char> blob) {
  SumsView v;
  CpaSnapshot snap = parse_snapshot(blob, "CpaEngine::merge", v);
  if (snap.samples != samples_ || snap.bytes != bytes_ ||
      snap.model != model_)
    throw std::invalid_argument("CpaEngine::merge: snapshot geometry mismatch");
  flush();
  fold(snap.n, v);
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
  flush_counter().inc();
  RFTC_OBS_SPAN(span, "cpa", "flush");
  span.arg("traces", static_cast<double>(nb));
  if (codes_for_tile())
    flush_tile(tile_codes_.data(), isum_, bound_.data(), tile_kmax_);
  else
    flush_tile(tile_traces_.data(), dsum_, nullptr, 0);
  tile_count_ = 0;
}

template <class In, class Wide, class Row>
void CpaEngine::flush_tile(const In* tile, SumArrays<Wide, Row>& sums,
                           std::uint32_t* bound, std::uint32_t kmax) const {
  const std::size_t nb = tile_count_;
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
          trace_sums(tile + i * samples_, sums.t.data(), sums.t2.data(),
                     samples_);
        continue;
      }
      const std::size_t bi = j;
      if (last_round) {
        Wide* wrow = sums.w.data() + bi * samples_;
        for (std::size_t i = 0; i < nb; ++i) {
          const unsigned y = tile_y_[i * n_bytes + bi];
          weight_add(static_cast<unsigned>(std::popcount(y)),
                     tile + i * samples_, wrow, samples_);
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
      // tile_fits() checked these integer bounds before the flush began.
      if (bound != nullptr)
        for (std::size_t x = 0; x < 256; ++x)
          bound[bi * 256 + x] += (start[x + 1] - start[x]) * kmax;

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
        Row* dx = sums.d.data() + (bi * 256 + x) * planes * samples_;
        for (std::uint32_t r = start[x]; r < start[x + 1]; ++r) {
          const std::size_t i = order[r];
          const In* tr = tile + i * samples_;
          if (last_round) {
            const unsigned y = tile_y_[i * n_bytes + bi];
            add_planes(tr, dx, samples_, 8, y, samples_);
            aes::last_round_hypothesis_row_into(
                static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y),
                row);
          } else {
            add_planes(tr, dx, samples_, 1, 0, samples_);
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
  for (std::size_t bi = 0; bi < bytes_.size(); ++bi)
    out[bi].byte_pos = bytes_[bi];
  // Nothing flushed: every sum is zero and so is every correlation.
  if (rep_ == Rep::kPending) return out;
  const double n = static_cast<double>(n_);

  const KernelSpectra& ks = kernel_spectra(model_);
  const std::size_t planes = static_cast<std::size_t>(ks.planes);
  const bool last_round = model_ == aes::LeakageModel::kLastRoundHd;
  const std::size_t block = report_block(bytes_.size(), samples_);
  const std::size_t n_blocks = (samples_ + block - 1) / block;
  const std::size_t scratch_len = 2 * 256 * std::min(block, samples_);
  // Integer sums enter the report as k·2^-e, exactly: the very doubles
  // the double sums would hold.  Class sums enter the panels as plain k
  // and the 2^-e joins the inverse transform's 2^-8 — a power of two
  // commutes with every add, sub and product of the transform, so the
  // bits are the same.
  const bool integer = rep_ == Rep::kInteger;
  const double scale = std::ldexp(1.0, -exp_);
  const double acc_scale = integer ? std::ldexp(1.0, -8 - exp_) : 0x1.0p-8;
  const auto as_doubles = [](const std::vector<std::int64_t>& v, double s) {
    std::vector<double> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
      out[i] = static_cast<double>(v[i]) * s;
    return out;
  };
  const std::vector<double> int_t =
      integer ? as_doubles(isum_.t, scale) : std::vector<double>{};
  const std::vector<double> int_t2 =
      integer ? as_doubles(isum_.t2, scale * scale) : std::vector<double>{};
  const std::vector<double> int_w =
      integer ? as_doubles(isum_.w, scale) : std::vector<double>{};
  const double* sum_t = integer ? int_t.data() : dsum_.t.data();
  const double* sum_t2 = integer ? int_t2.data() : dsum_.t2.data();
  const double* class_w = integer ? int_w.data() : dsum_.w.data();

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
            for (std::size_t x = 0; x < 256; ++x) {
              const std::size_t at = (bi * 256 + x) * stride + k * samples_ + s0;
              double* dst = panel + x * sb;
              if (!integer) {
                std::memcpy(dst, dsum_.d.data() + at, sb * sizeof(double));
                continue;
              }
              simd::widen_i32(isum_.d.data() + at, dst, sb);
            }
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
              last_round ? class_w + bi * samples_ + s0 : nullptr;
          double* peaks = partial.data() + j * 256;
          for (std::size_t g = 0; g < 256; ++g) {
            const double sh = static_cast<double>(sum_h_[bi * 256 + g]);
            const double sh2 = static_cast<double>(sum_h2_[bi * 256 + g]);
            peaks[g] = simd::peak_abs_correlation_scaled(
                n, sh, sh2, sum_t + s0, sum_t2 + s0,
                acc + g * sb, wrow, acc_scale, sb);
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
