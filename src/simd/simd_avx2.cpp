// AVX2 backend.  This is the only translation unit compiled with -mavx2
// -mpclmul (and deliberately NOT -mfma): every kernel uses explicit
// mul-then-add so the floating-point operation sequence per element is
// identical to the scalar backend — see the bit-identity contract in
// simd.hpp.  PCLMULQDQ serves the CRC-32 fold alone.
#include "simd/kernel_table.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>

namespace rftc::simd::detail {

namespace {

inline __m256d load4f_as_pd(const float* x) {
  return _mm256_cvtps_pd(_mm_loadu_ps(x));
}

void v_accumulate_sums(const double* t, double* s1, double* s2,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(t + i);
    _mm256_storeu_pd(s1 + i, _mm256_add_pd(_mm256_loadu_pd(s1 + i), v));
    _mm256_storeu_pd(
        s2 + i,
        _mm256_add_pd(_mm256_loadu_pd(s2 + i), _mm256_mul_pd(v, v)));
  }
  for (; i < n; ++i) {
    const double v = t[i];
    s1[i] += v;
    s2[i] += v * v;
  }
}

void v_accumulate_sums_f(const float* t, double* s1, double* s2,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = load4f_as_pd(t + i);
    _mm256_storeu_pd(s1 + i, _mm256_add_pd(_mm256_loadu_pd(s1 + i), v));
    _mm256_storeu_pd(
        s2 + i,
        _mm256_add_pd(_mm256_loadu_pd(s2 + i), _mm256_mul_pd(v, v)));
  }
  for (; i < n; ++i) {
    const double v = static_cast<double>(t[i]);
    s1[i] += v;
    s2[i] += v * v;
  }
}

void v_add_f(const float* x, double* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), load4f_as_pd(x + i)));
  for (; i < n; ++i) y[i] += static_cast<double>(x[i]);
}

void v_sub_f(const float* x, double* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), load4f_as_pd(x + i)));
  for (; i < n; ++i) y[i] -= static_cast<double>(x[i]);
}

void v_axpy(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(y + i),
                                   _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  for (; i < n; ++i) y[i] += a * x[i];
}

void v_axpy_f(double a, const float* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(y + i),
                                   _mm256_mul_pd(va, load4f_as_pd(x + i))));
  for (; i < n; ++i) y[i] += a * static_cast<double>(x[i]);
}

// Radix-4 WHT: rows (r, r + h, r + 2h, r + 3h) take stage h and then
// stage 2h while in registers.  Stage h pairs (r, r + h) and
// (r + 2h, r + 3h); stage 2h pairs (r, r + 2h) and (r + h, r + 3h) — the
// very operands the scalar stage loop feeds each element, so the bits
// match.  256 = 4^4: four passes, h = 1, 4, 16, 64.
void v_wht256(double* p, std::size_t w) {
  for (std::size_t h = 1; h < 256; h <<= 2) {
    for (std::size_t base = 0; base < 256; base += 4 * h) {
      for (std::size_t j = base; j < base + h; ++j) {
        double* r0 = p + j * w;
        double* r1 = r0 + h * w;
        double* r2 = r1 + h * w;
        double* r3 = r2 + h * w;
        std::size_t i = 0;
        for (; i + 4 <= w; i += 4) {
          const __m256d a = _mm256_loadu_pd(r0 + i);
          const __m256d b = _mm256_loadu_pd(r1 + i);
          const __m256d c = _mm256_loadu_pd(r2 + i);
          const __m256d d = _mm256_loadu_pd(r3 + i);
          const __m256d ab = _mm256_add_pd(a, b), a_b = _mm256_sub_pd(a, b);
          const __m256d cd = _mm256_add_pd(c, d), c_d = _mm256_sub_pd(c, d);
          _mm256_storeu_pd(r0 + i, _mm256_add_pd(ab, cd));
          _mm256_storeu_pd(r1 + i, _mm256_add_pd(a_b, c_d));
          _mm256_storeu_pd(r2 + i, _mm256_sub_pd(ab, cd));
          _mm256_storeu_pd(r3 + i, _mm256_sub_pd(a_b, c_d));
        }
        for (; i < w; ++i) {
          const double ab = r0[i] + r1[i], a_b = r0[i] - r1[i];
          const double cd = r2[i] + r3[i], c_d = r2[i] - r3[i];
          r0[i] = ab + cd;
          r1[i] = a_b + c_d;
          r2[i] = ab - cd;
          r3[i] = a_b - c_d;
        }
      }
    }
  }
}

inline void welford_step4(__m256d x, double* cnt, double* mean, double* m2) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d c = _mm256_add_pd(_mm256_loadu_pd(cnt), one);
  const __m256d mo = _mm256_loadu_pd(mean);
  const __m256d delta = _mm256_sub_pd(x, mo);
  const __m256d m = _mm256_add_pd(mo, _mm256_div_pd(delta, c));
  _mm256_storeu_pd(cnt, c);
  _mm256_storeu_pd(mean, m);
  _mm256_storeu_pd(
      m2, _mm256_add_pd(_mm256_loadu_pd(m2),
                        _mm256_mul_pd(delta, _mm256_sub_pd(x, m))));
}

void v_welford_update(const double* x, double* cnt, double* mean, double* m2,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    welford_step4(_mm256_loadu_pd(x + i), cnt + i, mean + i, m2 + i);
  for (; i < n; ++i) {
    const double c = cnt[i] + 1.0;
    const double delta = x[i] - mean[i];
    const double m = mean[i] + delta / c;
    cnt[i] = c;
    mean[i] = m;
    m2[i] += delta * (x[i] - m);
  }
}

void v_welford_update_f(const float* x, double* cnt, double* mean, double* m2,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    welford_step4(load4f_as_pd(x + i), cnt + i, mean + i, m2 + i);
  for (; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    const double c = cnt[i] + 1.0;
    const double delta = v - mean[i];
    const double m = mean[i] + delta / c;
    cnt[i] = c;
    mean[i] = m;
    m2[i] += delta * (v - m);
  }
}

void v_welch_t(const double* na, const double* ma, const double* m2a,
               const double* nb, const double* mb, const double* m2b,
               double* t, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vna = _mm256_loadu_pd(na + i);
    const __m256d vnb = _mm256_loadu_pd(nb + i);
    // Lanes with a count < 2 still run the arithmetic (possibly dividing by
    // zero — quiet in IEEE) and are blended to 0 at the end.
    const __m256d va = _mm256_div_pd(
        _mm256_div_pd(_mm256_loadu_pd(m2a + i), _mm256_sub_pd(vna, one)),
        vna);
    const __m256d vb = _mm256_div_pd(
        _mm256_div_pd(_mm256_loadu_pd(m2b + i), _mm256_sub_pd(vnb, one)),
        vnb);
    const __m256d denom = _mm256_sqrt_pd(_mm256_add_pd(va, vb));
    const __m256d tv = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(ma + i), _mm256_loadu_pd(mb + i)),
        denom);
    __m256d ok = _mm256_and_pd(_mm256_cmp_pd(vna, two, _CMP_GE_OQ),
                               _mm256_cmp_pd(vnb, two, _CMP_GE_OQ));
    ok = _mm256_and_pd(ok, _mm256_cmp_pd(denom, zero, _CMP_NEQ_OQ));
    _mm256_storeu_pd(t + i, _mm256_blendv_pd(zero, tv, ok));
  }
  for (; i < n; ++i) {
    if (na[i] < 2.0 || nb[i] < 2.0) {
      t[i] = 0.0;
      continue;
    }
    const double va = (m2a[i] / (na[i] - 1.0)) / na[i];
    const double vb = (m2b[i] / (nb[i] - 1.0)) / nb[i];
    const double denom = std::sqrt(va + vb);
    t[i] = denom == 0.0 ? 0.0 : (ma[i] - mb[i]) / denom;
  }
}

// The correlation sweep with ht materialised as w + acc * scale.  max() is
// the only cross-lane combine, so the reduction is exact and
// order-independent.
double v_peak_abs_correlation_scaled(double n, double sh, double sh2,
                                     const double* st, const double* st2,
                                     const double* acc, const double* w,
                                     double scale, std::size_t len) {
  const double dh = n * sh2 - sh * sh;
  if (dh <= 0.0) return 0.0;
  const __m256d vn = _mm256_set1_pd(n);
  const __m256d vsh = _mm256_set1_pd(sh);
  const __m256d vdh = _mm256_set1_pd(dh);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d vpeak = zero;
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256d vw = w != nullptr ? _mm256_loadu_pd(w + i) : zero;
    const __m256d ht =
        _mm256_add_pd(vw, _mm256_mul_pd(_mm256_loadu_pd(acc + i), vscale));
    const __m256d vst = _mm256_loadu_pd(st + i);
    const __m256d num =
        _mm256_sub_pd(_mm256_mul_pd(vn, ht), _mm256_mul_pd(vsh, vst));
    const __m256d dt = _mm256_sub_pd(_mm256_mul_pd(vn, _mm256_loadu_pd(st2 + i)),
                                     _mm256_mul_pd(vst, vst));
    // Degenerate lanes (dt <= 0) may produce NaN/inf here; they are blended
    // to 0 before entering the max, matching the scalar `continue`.
    const __m256d c =
        _mm256_div_pd(num, _mm256_sqrt_pd(_mm256_mul_pd(vdh, dt)));
    const __m256d ok = _mm256_cmp_pd(dt, zero, _CMP_GT_OQ);
    vpeak = _mm256_max_pd(
        vpeak, _mm256_blendv_pd(zero, _mm256_and_pd(c, absmask), ok));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, vpeak);
  double peak = std::max(std::max(lanes[0], lanes[1]),
                         std::max(lanes[2], lanes[3]));
  for (; i < len; ++i) {
    const double ht = (w != nullptr ? w[i] : 0.0) + acc[i] * scale;
    const double num = n * ht - sh * st[i];
    const double dt = n * st2[i] - st[i] * st[i];
    if (dt <= 0.0) continue;
    const double c = num / std::sqrt(dh * dt);
    peak = std::max(peak, std::fabs(c));
  }
  return peak;
}

void v_xor_popcount(const std::uint8_t* pre, std::uint8_t y, std::uint8_t* out,
                    std::size_t n) {
  // Classic vpshufb nibble-LUT popcount, 32 bytes per iteration.
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i vy = _mm256_set1_epi8(static_cast<char>(y));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pre + i)), vy);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i pc = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                       _mm256_shuffle_epi8(lut, hi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), pc);
  }
  for (; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(
        __builtin_popcount(static_cast<unsigned>(pre[i] ^ y)));
}

// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) in the
// bit-reflected domain of 0xEDB88320.  Each k is (x^n mod P(x)) << 32,
// bit-reflected and shifted left by one:
//   k1, k2 = x^(512+32), x^(512-32) mod P — the 64-byte fold stride;
//   k3, k4 = x^(128+32), x^(128-32) mod P — the 16-byte fold stride;
//   k5     = x^64 mod P                   — the 128 -> 64-bit fold;
//   P', mu = P(x) and floor(x^64 / P(x)), reflected — the Barrett step.
constexpr std::uint64_t kCrcK1 = 0x0154442bd4, kCrcK2 = 0x01c6e41596;
constexpr std::uint64_t kCrcK3 = 0x01751997d0, kCrcK4 = 0x00ccaa009e;
constexpr std::uint64_t kCrcK5 = 0x0163cd6124;
constexpr std::uint64_t kCrcPoly = 0x01db710641, kCrcMu = 0x01f7011641;

inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i k_pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

/// One fold step: x carried forward by the stride `k` encodes (low half
/// times k.lo, high half times k.hi), XORed into the 128 bits `next`.
inline __m128i fold16(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Folds len bytes (len >= 64, a multiple of 16) into the running CRC
/// register `c` (the pre-/post-inversion is the caller's).
std::uint32_t crc32_fold(std::uint32_t c, const std::uint8_t* p,
                         std::size_t len) {
  __m128i x1 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  len -= 64;

  const __m128i k12 = k_pair(kCrcK1, kCrcK2);
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold16(x1, k12, load16(p));
    x2 = fold16(x2, k12, load16(p + 16));
    x3 = fold16(x3, k12, load16(p + 32));
    x4 = fold16(x4, k12, load16(p + 48));
  }

  const __m128i k34 = k_pair(kCrcK3, kCrcK4);
  x1 = fold16(x1, k34, x2);
  x1 = fold16(x1, k34, x3);
  x1 = fold16(x1, k34, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold16(x1, k34, load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits by Barrett reduction.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k34, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32),
                                          k_pair(kCrcK5, 0), 0x00),
                     _mm_srli_si128(x1, 4));
  const __m128i pmu = k_pair(kCrcPoly, kCrcMu);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pmu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// The fold covers the 16-byte-aligned prefix of any input of at least 64
/// bytes; the byte table takes the tail and short inputs.  Bit-identical to
/// crc32_bytes (GF(2) arithmetic has no rounding to reorder).
std::uint32_t v_crc32_update(std::uint32_t crc, const std::uint8_t* p,
                             std::size_t len) {
  if (len < 64) return crc32_bytes(crc, p, len);
  const std::size_t body = len & ~std::size_t{15};
  const std::uint32_t folded = ~crc32_fold(~crc, p, body);
  return crc32_bytes(folded, p + body, len - body);
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable t = {
      v_accumulate_sums,
      v_accumulate_sums_f,
      v_add_f,
      v_sub_f,
      v_axpy,
      v_axpy_f,
      v_wht256,
      v_welford_update,
      v_welford_update_f,
      v_welch_t,
      v_peak_abs_correlation_scaled,
      v_xor_popcount,
      v_crc32_update,
  };
  return t;
}

}  // namespace rftc::simd::detail

#else  // non-x86: avx2_supported() is false, this table is never selected.

namespace rftc::simd::detail {
const KernelTable& avx2_table() { return scalar_table(); }
}  // namespace rftc::simd::detail

#endif
