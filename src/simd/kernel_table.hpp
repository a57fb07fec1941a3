// Internal dispatch table shared by the scalar and AVX2 backend TUs.  Not
// installed as public API — include simd.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rftc::simd::detail {

struct KernelTable {
  void (*accumulate_sums_f)(const float*, double*, double*, std::size_t);
  void (*add_f)(const float*, double*, std::size_t);
  void (*sub_f)(const float*, double*, std::size_t);
  void (*add_planes_i16)(const std::int16_t*, std::int32_t*, std::size_t,
                         unsigned, unsigned, std::size_t);
  void (*axpy_i16)(std::int32_t, const std::int16_t*, std::int64_t*,
                   std::size_t);
  void (*accumulate_sums_i16)(const std::int16_t*, std::int64_t*,
                              std::int64_t*, std::size_t);
  void (*widen_i32)(const std::int32_t*, double*, std::size_t);
  void (*axpy)(double, const double*, double*, std::size_t);
  void (*axpy_f)(double, const float*, double*, std::size_t);
  void (*wht256)(double*, std::size_t);
  double (*peak_abs_correlation_scaled)(double, double, double, const double*,
                                        const double*, const double*,
                                        const double*, double, std::size_t);
  void (*xor_popcount)(const std::uint8_t*, std::uint8_t, std::uint8_t*,
                       std::size_t);
  std::uint32_t (*crc32_update)(std::uint32_t, const std::uint8_t*,
                                std::size_t);
};

/// The table-driven byte-at-a-time CRC-32: the scalar backend's entry and
/// the AVX2 kernel's path for short inputs and sub-16-byte tails.
std::uint32_t crc32_bytes(std::uint32_t crc, const std::uint8_t* p,
                          std::size_t len);

/// Portable reference backend (simd.cpp).
const KernelTable& scalar_table();

/// AVX2 backend (simd_avx2.cpp, the only TU built with -mavx2).  Returns
/// scalar_table() on non-x86 builds, where avx2_supported() is false.
const KernelTable& avx2_table();

}  // namespace rftc::simd::detail
