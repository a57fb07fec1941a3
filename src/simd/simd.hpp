// rftc::simd — runtime-dispatched vectorization layer for the analysis hot
// paths (CPA class sums, double and integer, Welch-t raw sums, leakage models, correlation
// sweeps) and for the CRC-32 behind every trace-store chunk and wire blob.
//
// Two backends implement one kernel table: a portable scalar fallback
// (plain loops, compiled with the project-wide flags) and an AVX2
// implementation (explicit intrinsics, compiled with -mavx2 -mpclmul on
// that single translation unit only — see src/simd/CMakeLists.txt).  The
// backend is picked once at first use: RFTC_SIMD=avx2|scalar overrides,
// otherwise a CPUID probe selects AVX2 when the host supports it (AVX2 and
// PCLMULQDQ both).  Tests sweep both
// in-process via set_backend().
//
// Bit-identity contract: every kernel is ELEMENTWISE over independent
// accumulator lanes — vectorization changes which elements are processed
// per instruction, never the sequence of floating-point operations applied
// to any single element.  The AVX2 TU is compiled without -mfma and the
// kernels use explicit mul-then-add (no fused multiply-add), so scalar and
// AVX2 backends produce bit-identical results on any input; the golden
// equivalence tests (test_simd.cpp) pin this down across RFTC_THREADS x
// RFTC_SIMD.  The one reduction (peak_abs_correlation_scaled) only ever
// combines lanes with max(), which is exact and order-independent.
// crc32_update is the one non-elementwise kernel: it is integer arithmetic
// over GF(2), so the AVX2 fold and the scalar byte table agree on every
// input by construction.
//
// Selection is observable: the "rftc.simd.isa" gauge (0 = scalar,
// 1 = avx2) is published through rftc::obs, and benches stamp
// backend_name() into their BENCH_*.json reports.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rftc::simd {

enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when the host CPU can execute the AVX2 backend (AVX2 + PCLMULQDQ).
bool avx2_supported();

/// The active backend.  First call resolves RFTC_SIMD (avx2|scalar; an
/// unsupported request falls back to scalar with a one-time warning), else
/// probes CPUID, and publishes the "rftc.simd.isa" gauge.
Backend backend();

/// "scalar" or "avx2" — the active backend's name, for bench provenance.
const char* backend_name();

/// Overrides the backend at runtime (test hook, mirroring
/// par::set_thread_count).  Throws std::invalid_argument when the host
/// cannot execute the requested backend.  Not safe to call concurrently
/// with running kernels.
void set_backend(Backend b);

// ---------------------------------------------------------------------------
// Kernels.  All pointers may be unaligned; x/y (input/accumulator) ranges
// must not alias unless stated.  n == 0 is a no-op.
// ---------------------------------------------------------------------------

/// s1[i] += v; s2[i] += v * v with v = (double)t[i]: per-sample first and
/// second moments of a float trace, widened to double once.
void accumulate_sums_f(const float* t, double* s1, double* s2, std::size_t n);

/// y[i] += x[i] (float input, double accumulator).
void add_f(const float* x, double* y, std::size_t n);

/// y[i] -= x[i] (float input, double accumulator).
void sub_f(const float* x, double* y, std::size_t n);

/// Integer twins of the plane, W and trace-sum updates, for exact class
/// sums on ADC-quantized traces: int16 codes in, 8 lanes per AVX2 op.
/// Integer adds are exact, so they are bit-identical on every backend; the
/// caller keeps every sum inside its type (CpaEngine bounds them before a
/// flush).
/// rows[k * stride + i] += x[i] for k < planes <= 8, or -= x[i] where bit k
/// of `negate` is set (int32 accumulators): one trace into a class's
/// planes.
void add_planes_i16(const std::int16_t* x, std::int32_t* rows,
                    std::size_t stride, unsigned planes, unsigned negate,
                    std::size_t n);

/// y[i] += a * x[i] (int64 accumulator; |a| <= 2^16).
void axpy_i16(std::int32_t a, const std::int16_t* x, std::int64_t* y,
              std::size_t n);

/// s1[i] += x[i]; s2[i] += x[i] * x[i] (int64 accumulators).
void accumulate_sums_i16(const std::int16_t* x, std::int64_t* s1,
                         std::int64_t* s2, std::size_t n);

/// y[i] = (double)x[i], exact.
void widen_i32(const std::int32_t* x, double* y, std::size_t n);

/// y[i] += a * x[i] (explicit mul-then-add; never an FMA).
void axpy(double a, const double* x, double* y, std::size_t n);

/// y[i] += a * (double)x[i].
void axpy_f(double a, const float* x, double* y, std::size_t n);

/// In-place length-256 Walsh–Hadamard transform down the rows of a
/// [256][width] row-major panel: stage h = 1, 2, ..., 128 replaces each
/// pair of rows a = row r, b = row r + h (r & h == 0) with (a + b, a − b),
/// elementwise over the width columns.  The AVX2 backend fuses stage pairs
/// in registers (radix-4) without changing any element's add/sub sequence.
void wht256(double* panel, std::size_t width);

/// max_i |corr_i| where corr_i = (n * ht[i] - sh * st[i]) /
/// sqrt((n * sh2 - sh * sh) * (n * st2[i] - st[i] * st[i])), the Pearson
/// correlation from raw sums (0 when either variance term is <= 0) — the
/// per-guess CPA correlation sweep, with the cross sum materialised on the
/// fly as ht[i] = w[i] + acc[i] * scale (w may be null, read as 0.0).  The
/// (n, sh, sh2) terms are scalar per guess, so the hypothesis variance is
/// hoisted.
double peak_abs_correlation_scaled(double n, double sh, double sh2,
                                   const double* st, const double* st2,
                                   const double* acc, const double* w,
                                   double scale, std::size_t len);

/// out[i] = popcount(pre[i] ^ y) — the Hamming-distance leakage model over
/// a precomputed contiguous S-box row (see aes/leakage.cpp).
void xor_popcount(const std::uint8_t* pre, std::uint8_t y, std::uint8_t* out,
                  std::size_t n);

/// Incremental CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of
/// data[0, len), continuing from the running value `crc` (start from 0).
/// Integer-exact: every backend returns the same value.  The AVX2 backend
/// folds 64-byte blocks with PCLMULQDQ; the scalar one is a byte table.
std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t len);

}  // namespace rftc::simd
