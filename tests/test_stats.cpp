#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace rftc {
namespace {

TEST(RunningMoments, MatchesClosedForm) {
  RunningMoments m;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : xs) m.add(x);
  EXPECT_EQ(m.count(), xs.size());
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  // Sum of squared deviations is 32 over n-1 = 7.
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(m.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningMoments, SingleSampleHasZeroVariance) {
  RunningMoments m;
  m.add(3.5);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.5);
}

TEST(RunningMoments, NumericallyStableForLargeOffset) {
  RunningMoments m;
  for (int i = 0; i < 1'000; ++i) m.add(1e9 + (i % 2));
  EXPECT_NEAR(m.variance(), 0.25, 1e-2);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, DegenerateConstantInput) {
  const std::vector<double> x = {3, 3, 3};
  const std::vector<double> y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(CorrelationFromSums, AgreesWithPearson) {
  Xoshiro256StarStar rng(11);
  std::vector<double> x(64), y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x[i] = rng.gaussian();
    y[i] = 0.3 * x[i] + rng.gaussian();
  }
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  EXPECT_NEAR(correlation_from_sums(64, sx, sxx, sy, syy, sxy), pearson(x, y),
              1e-12);
}

TEST(WelchT, ZeroForIdenticalPopulations) {
  RunningMoments a, b;
  for (int i = 0; i < 100; ++i) {
    a.add(i % 7);
    b.add(i % 7);
  }
  EXPECT_NEAR(welch_t(a, b), 0.0, 1e-12);
}

TEST(WelchT, DetectsMeanShift) {
  Xoshiro256StarStar rng(3);
  RunningMoments a, b;
  for (int i = 0; i < 2'000; ++i) {
    a.add(rng.gaussian());
    b.add(rng.gaussian() + 1.0);
  }
  EXPECT_LT(welch_t(a, b), -4.5);
}

TEST(WelchT, InsufficientSamplesGiveZero) {
  RunningMoments a, b;
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
    std::vector<double> f = {rng.gaussian(), rng.gaussian(),
                             rng.gaussian() + 0.8, rng.gaussian()};
    std::vector<double> r = {rng.gaussian(), rng.gaussian(), rng.gaussian(),
                             rng.gaussian()};
    test.add_fixed(f);
    test.add_random(r);
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

TEST(StreamingCorrelation, MatchesBatchPearson) {
  Xoshiro256StarStar rng(23);
  StreamingCorrelation sc(3);
  std::vector<double> hs;
  std::vector<std::vector<double>> traces;
  for (int i = 0; i < 200; ++i) {
    const double h = static_cast<double>(rng.uniform(9));
    std::vector<double> t = {h * 0.5 + rng.gaussian(), rng.gaussian(),
                             -h + rng.gaussian() * 0.1};
    sc.add(h, t);
    hs.push_back(h);
    traces.push_back(t);
  }
  const auto cs = sc.correlations();
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<double> col(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) col[i] = traces[i][s];
    EXPECT_NEAR(cs[s], pearson(hs, col), 1e-10);
  }
  EXPECT_GT(cs[0], 0.5);
  EXPECT_LT(cs[2], -0.9);
  EXPECT_NEAR(sc.max_abs_correlation(), std::fabs(cs[2]), 1e-12);
}

}  // namespace
}  // namespace rftc
