#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace rftc {
namespace {

/// One population's raw moment sums (n, Σx, Σx²), as WelchTTest keeps them
/// per sample.
struct Sums {
  double n = 0.0, s = 0.0, s2 = 0.0;
  void add(double x) {
    n += 1.0;
    s += x;
    s2 += x * x;
  }
};

double welch_t(const Sums& a, const Sums& b) {
  return welch_t_from_sums(a.n, a.s, a.s2, b.n, b.s, b.s2);
}

TEST(WelchT, ZeroForIdenticalPopulations) {
  Sums a, b;
  for (int i = 0; i < 100; ++i) {
    a.add(i % 7);
    b.add(i % 7);
  }
  EXPECT_NEAR(welch_t(a, b), 0.0, 1e-12);
}

TEST(WelchT, DetectsMeanShift) {
  Xoshiro256StarStar rng(3);
  Sums a, b;
  for (int i = 0; i < 2'000; ++i) {
    a.add(rng.gaussian());
    b.add(rng.gaussian() + 1.0);
  }
  EXPECT_LT(welch_t(a, b), -4.5);
}

TEST(WelchT, InsufficientSamplesGiveZero) {
  Sums a, b;
  a.add(1.0);
  b.add(2.0);
  EXPECT_DOUBLE_EQ(welch_t(a, b), 0.0);
}

TEST(WelchTTest, PerSampleDetection) {
  Xoshiro256StarStar rng(17);
  WelchTTest test(4);
  // Sample 2 carries a deterministic difference; the others are identical
  // distributions.
  for (int i = 0; i < 3'000; ++i) {
    const std::vector<float> f = {
        static_cast<float>(rng.gaussian()), static_cast<float>(rng.gaussian()),
        static_cast<float>(rng.gaussian() + 0.8),
        static_cast<float>(rng.gaussian())};
    const std::vector<float> r = {
        static_cast<float>(rng.gaussian()), static_cast<float>(rng.gaussian()),
        static_cast<float>(rng.gaussian()), static_cast<float>(rng.gaussian())};
    test.add_fixed_range(f, 0, f.size());
    test.add_random_range(r, 0, r.size());
  }
  const auto t = test.t_values();
  EXPECT_GT(std::fabs(t[2]), 4.5);
  EXPECT_LT(std::fabs(t[0]), 4.5);
  EXPECT_LT(std::fabs(t[1]), 4.5);
  EXPECT_LT(std::fabs(t[3]), 4.5);
  const TStatScan scan = scan_t(t, 4.5);
  EXPECT_GT(scan.max_abs_t, 4.5);
  EXPECT_EQ(scan.worst_sample, 2u);
  EXPECT_EQ(scan.leaking_samples, 1u);
  EXPECT_EQ(test.fixed_count(), 3'000u);
  EXPECT_EQ(test.random_count(), 3'000u);
}

}  // namespace
}  // namespace rftc
