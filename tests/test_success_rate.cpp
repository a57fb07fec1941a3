#include "analysis/success_rate.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>

#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"

namespace rftc::analysis {
namespace {

aes::Key test_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i) k[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(0x99 - 5 * i);
  return k;
}

CampaignFactory unprotected_factory() {
  return [](std::uint64_t repeat, std::size_t n) {
    core::ScheduledAesDevice dev(
        test_key(), std::make_unique<sched::FixedClockScheduler>(48.0));
    trace::PowerModelParams pm;
    trace::TraceSimulator sim(pm, 1'000 + repeat);
    Xoshiro256StarStar rng(2'000 + repeat);
    return trace::acquire_random(
        [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, n, rng);
  };
}

TEST(SuccessRate, ValidatesParameters) {
  AttackParams attack;
  SuccessRateParams bad;
  EXPECT_THROW(estimate_success_rate(unprotected_factory(), aes::Block{},
                                     std::span(&attack, 1), bad),
               std::invalid_argument);
  bad.checkpoints = {10};
  bad.repeats = 0;
  EXPECT_THROW(estimate_success_rate(unprotected_factory(), aes::Block{},
                                     std::span(&attack, 1), bad),
               std::invalid_argument);
}

TEST(SuccessRate, UnprotectedCurveRisesToOne) {
  AttackParams attack;
  attack.kind = AttackKind::kCpa;
  attack.byte_positions = {0, 8};
  SuccessRateParams sr;
  sr.checkpoints = {500, 1'500, 3'000};
  sr.repeats = 3;
  const SuccessRateCurve curve = estimate_success_rate(
      unprotected_factory(), aes::expand_key(test_key())[10],
      std::span(&attack, 1), sr)[0];
  ASSERT_EQ(curve.checkpoints.size(), 3u);
  EXPECT_EQ(curve.success_rate.back(), 1.0);
  // Mean rank improves as traces accumulate.
  EXPECT_LE(curve.mean_rank.back(), curve.mean_rank.front());
  std::size_t first_full = curve.checkpoints.size() - 1;
  for (std::size_t i = 0; i < curve.checkpoints.size(); ++i) {
    if (curve.success_rate[i] >= 1.0) {
      first_full = i;
      break;
    }
  }
  EXPECT_EQ(curve.traces_to_reach(1.0), curve.checkpoints[first_full]);
}

TEST(SuccessRate, WrongKeyNeverSucceeds) {
  AttackParams attack;
  attack.byte_positions = {0};
  SuccessRateParams sr;
  sr.checkpoints = {200};
  sr.repeats = 2;
  aes::Block wrong_key{};
  wrong_key.fill(0xEE);
  const SuccessRateCurve curve = estimate_success_rate(
      unprotected_factory(), wrong_key, std::span(&attack, 1), sr)[0];
  EXPECT_EQ(curve.success_rate.back(), 0.0);
  EXPECT_EQ(curve.traces_to_reach(0.5), 0u);
}

TEST(SuccessRate, AttacksShareOneCampaignPerRepeat) {
  AttackParams byte0;
  byte0.byte_positions = {0};
  AttackParams byte3 = byte0;
  byte3.byte_positions = {3};
  const std::array<AttackParams, 2> attacks{byte0, byte3};
  SuccessRateParams sr;
  sr.checkpoints = {300, 900};
  sr.repeats = 2;
  const aes::Block rk10 = aes::expand_key(test_key())[10];
  int captures = 0;
  const CampaignFactory counted = [&](std::uint64_t repeat, std::size_t n) {
    ++captures;
    return unprotected_factory()(repeat, n);
  };
  const std::vector<SuccessRateCurve> curves =
      estimate_success_rate(counted, rk10, attacks, sr);
  EXPECT_EQ(captures, 2);  // one campaign per repeat, not per attack
  ASSERT_EQ(curves.size(), attacks.size());
  // Scoring together changes nothing: each curve equals its solo run.
  for (std::size_t a = 0; a < attacks.size(); ++a) {
    const SuccessRateCurve solo = estimate_success_rate(
        unprotected_factory(), rk10, std::span(&attacks[a], 1), sr)[0];
    EXPECT_EQ(curves[a].success_rate, solo.success_rate);
    EXPECT_EQ(curves[a].mean_rank, solo.mean_rank);
  }
}

TEST(SuccessRate, TracesToReachHonoursLevel) {
  SuccessRateCurve c;
  c.checkpoints = {10, 20, 30};
  c.success_rate = {0.0, 0.5, 1.0};
  EXPECT_EQ(c.traces_to_reach(0.4), 20u);
  EXPECT_EQ(c.traces_to_reach(0.9), 30u);
  EXPECT_EQ(c.traces_to_reach(1.1), 0u);
}

}  // namespace
}  // namespace rftc::analysis
