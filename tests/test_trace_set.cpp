#include "trace/trace_set.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"

namespace rftc::trace {
namespace {

TEST(TraceSet, AddAndRetrieve) {
  TraceSet set(4);
  aes::Block pt{}, ct{};
  pt[0] = 1;
  ct[0] = 2;
  set.add({1.0f, 2.0f, 3.0f, 4.0f}, pt, ct);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.samples(), 4u);
  EXPECT_EQ(set.trace(0)[2], 3.0f);
  EXPECT_EQ(set.plaintext(0), pt);
  EXPECT_EQ(set.ciphertext(0), ct);
}

TEST(TraceSet, RejectsWrongSampleCount) {
  TraceSet set(4);
  EXPECT_THROW(set.add({1.0f}, aes::Block{}, aes::Block{}),
               std::invalid_argument);
}

TEST(TraceSet, DownsampleBoxAverages) {
  TraceSet set(6);
  set.add({1, 3, 5, 7, 9, 11}, aes::Block{}, aes::Block{});
  const TraceSet ds = set.downsampled(2);
  EXPECT_EQ(ds.samples(), 3u);
  EXPECT_FLOAT_EQ(ds.trace(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(ds.trace(0)[1], 6.0f);
  EXPECT_FLOAT_EQ(ds.trace(0)[2], 10.0f);
}

TEST(TraceSet, DownsampleDropsTail) {
  TraceSet set(5);
  set.add({1, 1, 1, 1, 99}, aes::Block{}, aes::Block{});
  const TraceSet ds = set.downsampled(2);
  EXPECT_EQ(ds.samples(), 2u);  // fifth sample dropped
}

TEST(TraceSet, DownsampleValidation) {
  TraceSet set(4);
  EXPECT_THROW(set.downsampled(0), std::invalid_argument);
  EXPECT_THROW(set.downsampled(5), std::invalid_argument);
}

TEST(Acquisition, RandomCampaignProducesValidCiphertexts) {
  aes::Key key{};
  key[0] = 0x42;
  core::ScheduledAesDevice dev(
      key, std::make_unique<sched::FixedClockScheduler>(48.0));
  PowerModelParams p;
  TraceSimulator sim(p, 7);
  Xoshiro256StarStar rng(8);
  const TraceSet set = acquire_random(
      [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, 50, rng);
  EXPECT_EQ(set.size(), 50u);
  for (std::size_t i = 0; i < set.size(); ++i)
    EXPECT_EQ(set.ciphertext(i), aes::encrypt(set.plaintext(i), key));
}

TEST(Acquisition, TvlaPopulationsBalancedAndCorrect) {
  aes::Key key{};
  core::ScheduledAesDevice dev(
      key, std::make_unique<sched::FixedClockScheduler>(48.0));
  PowerModelParams p;
  TraceSimulator sim(p, 9);
  Xoshiro256StarStar rng(10);
  aes::Block fixed{};
  fixed[0] = 0xAA;
  const TvlaCapture cap = acquire_tvla(
      [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, 40, fixed,
      rng);
  EXPECT_EQ(cap.fixed.size(), 40u);
  EXPECT_EQ(cap.random.size(), 40u);
  for (std::size_t i = 0; i < cap.fixed.size(); ++i)
    EXPECT_EQ(cap.fixed.plaintext(i), fixed);
}

TEST(Acquisition, RandomBlockCoversValues) {
  Xoshiro256StarStar rng(11);
  std::array<int, 256> seen{};
  for (int i = 0; i < 200; ++i) {
    const aes::Block b = random_block(rng);
    for (const auto v : b) ++seen[v];
  }
  int distinct = 0;
  for (const int c : seen)
    if (c > 0) ++distinct;
  EXPECT_GT(distinct, 200);
}

}  // namespace
}  // namespace rftc::trace
