#include "analysis/dtw.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace rftc::analysis {
namespace {

std::vector<double> to_double(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

TEST(DtwAlign, AlignIntoMatchesAlignAndReusesBuffer) {
  Xoshiro256StarStar rng(31);
  std::vector<float> out;  // deliberately reused across shapes and modes
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 8 + rng.uniform(56);
    const std::size_t m = 8 + rng.uniform(56);
    std::vector<double> ref(n);
    std::vector<float> tr(m);
    for (auto& v : ref) v = rng.gaussian();
    for (auto& v : tr) v = static_cast<float>(rng.gaussian());
    for (const bool slope : {true, false}) {
      const DtwParams p{.band = 8, .slope_constrained = slope};
      const std::vector<float> fresh = dtw_align(ref, tr, p);
      dtw_align_into(ref, tr, p, out);
      ASSERT_EQ(out.size(), fresh.size());
      for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(out[i], fresh[i]) << "i=" << i << " slope=" << slope;
    }
  }
}

TEST(DtwAlign, AlignedOutputHasReferenceLength) {
  std::vector<double> ref(50, 0.0);
  std::vector<float> tr(64, 0.0f);
  const auto out = dtw_align(ref, tr);
  EXPECT_EQ(out.size(), 50u);
}

TEST(DtwAlign, UndoesAShift) {
  // Reference has a pulse at 20; the trace has it at 26.  After alignment
  // the pulse must sit back at (or next to) 20.
  std::vector<double> ref(64, 0.0);
  std::vector<float> tr(64, 0.0f);
  for (int i = 20; i < 24; ++i) ref[static_cast<std::size_t>(i)] = 8.0;
  for (int i = 26; i < 30; ++i) tr[static_cast<std::size_t>(i)] = 8.0f;
  const auto out = dtw_align(ref, tr, {.band = 12});
  // Energy concentrated near the reference pulse location.
  float at_ref = 0, away = 0;
  for (int i = 18; i < 26; ++i) at_ref += out[static_cast<std::size_t>(i)];
  for (int i = 34; i < 42; ++i) away += out[static_cast<std::size_t>(i)];
  EXPECT_GT(at_ref, 20.0f);
  EXPECT_LT(away, 4.0f);
}

TEST(DtwAlign, IdentityWhenAlreadyAligned) {
  Xoshiro256StarStar rng(5);
  std::vector<float> tr(48);
  for (auto& v : tr) v = static_cast<float>(rng.gaussian());
  const auto ref = to_double(tr);
  const auto out = dtw_align(ref, tr, {.band = 8});
  for (std::size_t i = 0; i < tr.size(); ++i)
    EXPECT_NEAR(out[i], tr[i], 1e-5) << i;
}

TEST(DtwAlign, HandlesLengthMismatch) {
  std::vector<double> ref(30, 1.0);
  std::vector<float> tr(45, 1.0f);
  const auto out = dtw_align(ref, tr, {.band = 4});
  EXPECT_EQ(out.size(), 30u);
  for (const float v : out) EXPECT_NEAR(v, 1.0f, 1e-6);
}

TEST(DtwAlign, StretchedTraceCompressesBack) {
  // The trace is the reference played at half speed (each sample doubled);
  // warping should reconstruct something close to the reference.
  std::vector<double> ref(32);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ref[i] = std::sin(static_cast<double>(i) * 0.4);
  std::vector<float> tr(64);
  for (std::size_t i = 0; i < tr.size(); ++i)
    tr[i] = static_cast<float>(ref[i / 2]);
  const auto out = dtw_align(ref, tr, {.band = 0});
  double err = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    err += std::fabs(out[i] - ref[i]);
  EXPECT_LT(err / static_cast<double>(ref.size()), 0.08);
}

}  // namespace
}  // namespace rftc::analysis
