#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "simd/simd.hpp"
#include "util/wire.hpp"

namespace rftc {

double welch_t_from_sums(double nf, double sf, double sf2, double nr,
                         double sr, double sr2) {
  if (nf < 2.0 || nr < 2.0) return 0.0;
  const double mf = sf / nf;
  const double mr = sr / nr;
  // Sample variance from raw sums; cancellation can push the numerator a
  // hair below zero for constant lanes, so clamp.
  const double vf = std::max(0.0, (sf2 - sf * mf) / (nf - 1.0));
  const double vr = std::max(0.0, (sr2 - sr * mr) / (nr - 1.0));
  const double denom = std::sqrt(vf / nf + vr / nr);
  if (denom == 0.0) return 0.0;
  return (mf - mr) / denom;
}

WelchTTest::WelchTTest(std::size_t samples)
    : f_n_(samples, 0.0),
      f_sum_(samples, 0.0),
      f_sum2_(samples, 0.0),
      r_n_(samples, 0.0),
      r_sum_(samples, 0.0),
      r_sum2_(samples, 0.0) {}

namespace {

void bump_counts(double* n, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) n[i] += 1.0;
}

}  // namespace

void WelchTTest::add_fixed_range(std::span<const float> trace, std::size_t s0,
                                 std::size_t s1) {
  assert(trace.size() == f_n_.size() && s1 <= trace.size());
  if (s0 >= s1) return;
  simd::accumulate_sums_f(trace.data() + s0, f_sum_.data() + s0,
                          f_sum2_.data() + s0, s1 - s0);
  bump_counts(f_n_.data() + s0, s1 - s0);
}

void WelchTTest::add_random_range(std::span<const float> trace, std::size_t s0,
                                  std::size_t s1) {
  assert(trace.size() == r_n_.size() && s1 <= trace.size());
  if (s0 >= s1) return;
  simd::accumulate_sums_f(trace.data() + s0, r_sum_.data() + s0,
                          r_sum2_.data() + s0, s1 - s0);
  bump_counts(r_n_.data() + s0, s1 - s0);
}

void WelchTTest::merge(const WelchTTest& other) {
  if (other.f_n_.size() != f_n_.size())
    throw std::invalid_argument("WelchTTest::merge: sample count mismatch");
  const auto fold = [](std::vector<double>& into,
                       const std::vector<double>& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
  };
  fold(f_n_, other.f_n_);
  fold(f_sum_, other.f_sum_);
  fold(f_sum2_, other.f_sum2_);
  fold(r_n_, other.r_n_);
  fold(r_sum_, other.r_sum_);
  fold(r_sum2_, other.r_sum2_);
}

namespace {
constexpr char kWelchMagic[9] = "RFTCWEL1";
}  // namespace

std::uint32_t WelchTTest::serialize(wire::Writer& out) const {
  out.magic(kWelchMagic);
  out.u64(f_n_.size());
  for (const std::vector<double>* arr :
       {&f_n_, &f_sum_, &f_sum2_, &r_n_, &r_sum_, &r_sum2_})
    out.array(arr->data(), arr->size());
  return out.seal();
}

std::vector<unsigned char> WelchTTest::serialize() const {
  std::vector<unsigned char> out;
  wire::Writer w(wire::append_to(out));
  serialize(w);
  return out;
}

WelchTTest WelchTTest::deserialize(std::span<const unsigned char> blob) {
  wire::Reader r(blob, "WelchTTest::deserialize");
  r.check_crc();
  r.expect_magic(kWelchMagic);
  const std::uint64_t samples = r.u64();
  // The blob carries 6 double lanes per sample; bound before allocating.
  if (samples == 0 || samples > blob.size() / (6 * sizeof(double)))
    throw std::runtime_error(
        "WelchTTest::deserialize: implausible sample count");
  WelchTTest test(static_cast<std::size_t>(samples));
  for (std::vector<double>* arr :
       {&test.f_n_, &test.f_sum_, &test.f_sum2_, &test.r_n_, &test.r_sum_,
        &test.r_sum2_})
    r.array(arr->data(), static_cast<std::size_t>(samples));
  r.expect_end();
  return test;
}

std::size_t WelchTTest::fixed_count() const {
  return f_n_.empty() ? 0 : static_cast<std::size_t>(f_n_.front());
}

std::size_t WelchTTest::random_count() const {
  return r_n_.empty() ? 0 : static_cast<std::size_t>(r_n_.front());
}

std::vector<double> WelchTTest::t_values() const {
  std::vector<double> out(f_n_.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = welch_t_from_sums(f_n_[i], f_sum_[i], f_sum2_[i], r_n_[i],
                               r_sum_[i], r_sum2_[i]);
  return out;
}

TStatScan scan_t(std::span<const double> t, double threshold) {
  TStatScan scan;
  for (std::size_t s = 0; s < t.size(); ++s) {
    scan.max_t = std::max(scan.max_t, t[s]);
    scan.min_t = std::min(scan.min_t, t[s]);
    const double a = std::fabs(t[s]);
    if (a > scan.max_abs_t) {
      scan.max_abs_t = a;
      scan.worst_sample = s;
    }
    if (a > threshold) ++scan.leaking_samples;
  }
  return scan;
}

}  // namespace rftc
