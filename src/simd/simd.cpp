#include "simd/simd.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "simd/kernel_table.hpp"

namespace rftc::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend: the portable reference every other backend must reproduce
// bit for bit.  Plain elementwise loops — the compiler may auto-vectorize
// them, which preserves bit-identity because no per-element operation
// sequence changes (the project never enables -ffast-math or FMA
// contraction on SSE2 targets).
// ---------------------------------------------------------------------------

void s_accumulate_sums_f(const float* t, double* s1, double* s2,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(t[i]);
    s1[i] += v;
    s2[i] += v * v;
  }
}

void s_add_f(const float* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += static_cast<double>(x[i]);
}

void s_sub_f(const float* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= static_cast<double>(x[i]);
}

void s_add_planes_i16(const std::int16_t* x, std::int32_t* rows,
                      std::size_t stride, unsigned planes, unsigned negate,
                      std::size_t n) {
  for (unsigned k = 0; k < planes; ++k) {
    std::int32_t* y = rows + k * stride;
    if ((negate >> k) & 1)
      for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
    else
      for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
  }
}

void s_axpy_i16(std::int32_t a, const std::int16_t* x, std::int64_t* y,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += std::int64_t{a * x[i]};
}

void s_accumulate_sums_i16(const std::int16_t* x, std::int64_t* s1,
                           std::int64_t* s2, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t v = x[i];
    s1[i] += v;
    s2[i] += v * v;
  }
}

void s_widen_i32(const std::int32_t* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = static_cast<double>(x[i]);
}

void s_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void s_axpy_f(double a, const float* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * static_cast<double>(x[i]);
}

void s_wht256(double* p, std::size_t w) {
  for (std::size_t half = 1; half < 256; half <<= 1) {
    for (std::size_t base = 0; base < 256; base += 2 * half) {
      for (std::size_t j = base; j < base + half; ++j) {
        double* a = p + j * w;
        double* b = a + half * w;
        for (std::size_t i = 0; i < w; ++i) {
          const double x = a[i], y = b[i];
          a[i] = x + y;
          b[i] = x - y;
        }
      }
    }
  }
}

double s_peak_abs_correlation_scaled(double n, double sh, double sh2,
                                     const double* st, const double* st2,
                                     const double* acc, const double* w,
                                     double scale, std::size_t len) {
  const double dh = n * sh2 - sh * sh;
  if (dh <= 0.0) return 0.0;
  double peak = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const double ht = (w != nullptr ? w[i] : 0.0) + acc[i] * scale;
    const double num = n * ht - sh * st[i];
    const double dt = n * st2[i] - st[i] * st[i];
    if (dt <= 0.0) continue;
    const double c = num / std::sqrt(dh * dt);
    peak = std::max(peak, std::fabs(c));
  }
  return peak;
}

void s_xor_popcount(const std::uint8_t* pre, std::uint8_t y, std::uint8_t* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(
        __builtin_popcount(static_cast<unsigned>(pre[i] ^ y)));
}

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kCrcPoly ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

std::atomic<const detail::KernelTable*> g_table{nullptr};
std::atomic<int> g_backend{-1};

void publish_isa_gauge(Backend b) {
  obs::Registry::global().gauge("rftc.simd.isa").set(
      b == Backend::kAvx2 ? 1.0 : 0.0);
}

Backend resolve_from_env() {
  const char* env = std::getenv("RFTC_SIMD");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "scalar") == 0) return Backend::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      if (avx2_supported()) return Backend::kAvx2;
      obs::log::warn(
          "simd",
          "RFTC_SIMD=avx2 requested but the CPU lacks AVX2 or PCLMULQDQ",
          {obs::log::kv("fallback", std::string_view("scalar"))});
      return Backend::kScalar;
    }
    obs::log::warn("simd", "unknown RFTC_SIMD value (want avx2|scalar)",
                   {obs::log::kv("value", std::string_view(env)),
                    obs::log::kv("fallback", std::string_view("cpuid"))});
  }
  return avx2_supported() ? Backend::kAvx2 : Backend::kScalar;
}

void install(Backend b) {
  g_table.store(b == Backend::kAvx2 ? &detail::avx2_table()
                                    : &detail::scalar_table(),
                std::memory_order_release);
  g_backend.store(static_cast<int>(b), std::memory_order_release);
  publish_isa_gauge(b);
}

const detail::KernelTable& table() {
  const detail::KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  install(resolve_from_env());
  return *g_table.load(std::memory_order_acquire);
}

}  // namespace

namespace detail {

std::uint32_t crc32_bytes(std::uint32_t crc, const std::uint8_t* p,
                          std::size_t len) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const KernelTable& scalar_table() {
  static const KernelTable t = {
      s_accumulate_sums_f,
      s_add_f,
      s_sub_f,
      s_add_planes_i16,
      s_axpy_i16,
      s_accumulate_sums_i16,
      s_widen_i32,
      s_axpy,
      s_axpy_f,
      s_wht256,
      s_peak_abs_correlation_scaled,
      s_xor_popcount,
      crc32_bytes,
  };
  return t;
}

}  // namespace detail

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  // The avx2 table's CRC-32 kernel also needs carry-less multiply.
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

Backend backend() {
  table();  // force resolution
  return static_cast<Backend>(g_backend.load(std::memory_order_acquire));
}

const char* backend_name() {
  return backend() == Backend::kAvx2 ? "avx2" : "scalar";
}

void set_backend(Backend b) {
  if (b == Backend::kAvx2 && !avx2_supported())
    throw std::invalid_argument("simd::set_backend: AVX2 not supported here");
  install(b);
}

// Public kernel entry points: one indirect call per array, amortized over
// the whole range.

void accumulate_sums_f(const float* t, double* s1, double* s2, std::size_t n) {
  table().accumulate_sums_f(t, s1, s2, n);
}

void add_f(const float* x, double* y, std::size_t n) { table().add_f(x, y, n); }

void sub_f(const float* x, double* y, std::size_t n) { table().sub_f(x, y, n); }

void add_planes_i16(const std::int16_t* x, std::int32_t* rows,
                    std::size_t stride, unsigned planes, unsigned negate,
                    std::size_t n) {
  table().add_planes_i16(x, rows, stride, planes, negate, n);
}

void axpy_i16(std::int32_t a, const std::int16_t* x, std::int64_t* y,
              std::size_t n) {
  table().axpy_i16(a, x, y, n);
}

void accumulate_sums_i16(const std::int16_t* x, std::int64_t* s1,
                         std::int64_t* s2, std::size_t n) {
  table().accumulate_sums_i16(x, s1, s2, n);
}

void widen_i32(const std::int32_t* x, double* y, std::size_t n) {
  table().widen_i32(x, y, n);
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  table().axpy(a, x, y, n);
}

void axpy_f(double a, const float* x, double* y, std::size_t n) {
  table().axpy_f(a, x, y, n);
}

void wht256(double* panel, std::size_t width) {
  table().wht256(panel, width);
}

double peak_abs_correlation_scaled(double n, double sh, double sh2,
                                   const double* st, const double* st2,
                                   const double* acc, const double* w,
                                   double scale, std::size_t len) {
  return table().peak_abs_correlation_scaled(n, sh, sh2, st, st2, acc, w,
                                             scale, len);
}

void xor_popcount(const std::uint8_t* pre, std::uint8_t y, std::uint8_t* out,
                  std::size_t n) {
  table().xor_popcount(pre, y, out, n);
}

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t len) {
  return table().crc32_update(crc, static_cast<const std::uint8_t*>(data),
                              len);
}

}  // namespace rftc::simd
