// rftc::simd — runtime-dispatched vectorization layer for the analysis hot
// paths (CPA class sums, Welch-t accumulation, leakage models, correlation
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

/// s1[i] += t[i]; s2[i] += t[i] * t[i]  (per-sample first/second moments).
void accumulate_sums(const double* t, double* s1, double* s2, std::size_t n);

/// Float-input variant: the trace value is widened to double once, then
/// accumulated exactly like accumulate_sums.
void accumulate_sums_f(const float* t, double* s1, double* s2, std::size_t n);

/// y[i] += x[i] (float input, double accumulator).
void add_f(const float* x, double* y, std::size_t n);

/// y[i] -= x[i] (float input, double accumulator).
void sub_f(const float* x, double* y, std::size_t n);

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

/// One Welford update per lane: cnt[i] += 1; delta = x[i] - mean[i];
/// mean[i] += delta / cnt[i]; m2[i] += delta * (x[i] - mean[i]).
/// Counts are kept as doubles (exact up to 2^53 updates).
void welford_update(const double* x, double* cnt, double* mean, double* m2,
                    std::size_t n);

/// Float-input Welford update (the trace sample is widened once).
void welford_update_f(const float* x, double* cnt, double* mean, double* m2,
                      std::size_t n);

/// Per-lane Welch t statistic from two Welford accumulator arrays:
/// t[i] = (ma[i] - mb[i]) / sqrt(va + vb) with v = (m2 / (n - 1)) / n,
/// and t[i] = 0 when either count is < 2 or the denominator is 0 — the
/// exact arithmetic of rftc::welch_t on RunningMoments.
void welch_t(const double* na, const double* ma, const double* m2a,
             const double* nb, const double* mb, const double* m2b,
             double* t, std::size_t n);

/// max_i |corr_i| where corr_i = correlation_from_sums(n, sh, sh2, st[i],
/// st2[i], ht[i]) — the per-guess CPA correlation sweep, with the cross sum
/// materialised on the fly as ht[i] = w[i] + acc[i] * scale (w may be null,
/// read as 0.0).  The (n, sh, sh2) terms are scalar per guess, so the
/// hypothesis variance is hoisted.
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
