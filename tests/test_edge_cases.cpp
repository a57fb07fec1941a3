// Edge cases and failure-injection tests across modules.
#include <gtest/gtest.h>

#include <algorithm>

#include "clocking/block_ram.hpp"
#include "clocking/clock_mux.hpp"
#include "clocking/drp_controller.hpp"
#include "rftc/frequency_planner.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rftc {
namespace {

TEST(LfsrEdge, NextBitsPacksLsbFirst) {
  Lfsr128 a(0x123456789ABCDEFULL, 0xFEDCBA987654321ULL);
  Lfsr128 b(0x123456789ABCDEFULL, 0xFEDCBA987654321ULL);
  const std::uint64_t word = a.next_bits(16);
  std::uint64_t expect = 0;
  for (int i = 0; i < 16; ++i)
    expect |= static_cast<std::uint64_t>(b.step()) << i;
  EXPECT_EQ(word, expect);
}

TEST(FloatingMeanEdge, BlockZeroIsTreatedAsOne) {
  FloatingMeanRng fm(2, 10, 0, 3);
  for (int i = 0; i < 50; ++i) EXPECT_LE(fm.next(), 10u);
}

TEST(WelchEdge, AsymmetricPopulationSizes) {
  Xoshiro256StarStar rng(5);
  WelchTTest t(2);
  for (int i = 0; i < 2'000; ++i) {
    const std::vector<float> f = {static_cast<float>(rng.gaussian()),
                                  static_cast<float>(rng.gaussian() + 1.0)};
    t.add_fixed_range(f, 0, f.size());
    if (i % 10 == 0) {
      const std::vector<float> r = {static_cast<float>(rng.gaussian()),
                                    static_cast<float>(rng.gaussian())};
      t.add_random_range(r, 0, r.size());
    }
  }
  EXPECT_EQ(t.fixed_count(), 2'000u);
  EXPECT_EQ(t.random_count(), 200u);
  // Sample 1 separation still detected with unbalanced populations.
  EXPECT_GT(std::fabs(t.t_values()[1]), 4.5);
}

TEST(HistogramEdge, SingleBin) {
  Histogram h(0.0, 1.0, 1);
  h.add(0.2);
  h.add(0.9);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.max_count(), 2u);
  EXPECT_FALSE(h.ascii(1, 10).empty());
}

TEST(ConfigStoreEdge, EmptyStore) {
  clk::ConfigStore store({});
  EXPECT_EQ(store.config_count(), 0u);
  EXPECT_EQ(store.stored_bits(), 0u);
  EXPECT_EQ(store.ramb36_count(), 0u);
  EXPECT_THROW(store.fetch(0), std::out_of_range);
}

TEST(MuxedClockEdge, OverheadConsistentWithSwitchLatency) {
  // A single switch in overhead mode must cost exactly switch_latency.
  const Picoseconds pa = 20'000, pb = 31'000;
  clk::MuxedClock mux({pa, pb}, /*model_overhead=*/true);
  const Picoseconds t1 = mux.advance(0);  // no penalty on first selection
  const Picoseconds expected_penalty =
      clk::switch_latency(pa, pb, t1 % pa, t1 % pb);
  const Picoseconds t2 = mux.advance(1);
  EXPECT_EQ(t2, t1 + expected_penalty + pb);
}

TEST(DrpControllerEdge, FasterDclkReconfiguresFasterWritesPhase) {
  clk::MmcmConfig cfg;
  cfg.fin_mhz = 24.0;
  cfg.mult_8ths = 40 * 8;
  cfg.divclk = 1;
  cfg.out_div_8ths = {20 * 8, 24 * 8, 30 * 8, 8, 8, 8, 8};
  clk::MmcmConfig target = cfg;
  target.mult_8ths = 48 * 8;

  clk::MmcmModel slow_mmcm(cfg), fast_mmcm(cfg);
  clk::DrpController slow(24.0), fast(48.0);
  const auto rs = slow.reconfigure(slow_mmcm, target, 0);
  const auto rf = fast.reconfigure(fast_mmcm, target, 0);
  EXPECT_LT(rf.writes_done, rs.writes_done);
  EXPECT_EQ(rf.drp_transactions, rs.drp_transactions);
}

TEST(PlannerEdge, EnumerationInvariantUnderPeriodPermutation) {
  const std::vector<Picoseconds> a = {20'833, 30'000, 41'667};
  std::vector<Picoseconds> b = {41'667, 20'833, 30'000};
  auto ta = core::enumerate_completion_times(a, 10);
  auto tb = core::enumerate_completion_times(b, 10);
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  EXPECT_EQ(ta, tb);
}

TEST(PlannerEdge, RoundsZeroGivesSingleZeroTime) {
  const auto times = core::enumerate_completion_times({25'000, 30'000}, 0);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 0);
}

TEST(PlannerEdge, CompletionCountFormulaEdges) {
  EXPECT_EQ(core::completion_times_per_set(1, 0), 1u);
  EXPECT_EQ(core::completion_times_per_set(1, 32), 1u);
  EXPECT_EQ(core::completion_times_per_set(7, 10), 8'008u);  // C(16, 10)
}

TEST(PlannerEdge, SmallGridStillPlans) {
  core::PlannerParams p;
  p.m_outputs = 1;
  p.p_configs = 3;
  p.f_min_mhz = 20.0;
  p.f_max_mhz = 28.0;
  p.grid_step_mhz = 1.0;
  p.seed = 3;
  const auto plan = core::plan_frequencies(p);
  EXPECT_EQ(plan.p(), 3u);
  for (const auto& cfg : plan.configs) {
    EXPECT_GE(cfg.output_mhz(0), 19.0);
    EXPECT_LE(cfg.output_mhz(0), 29.0);
  }
}

TEST(ExactHistogramEdge, NegativeKeys) {
  ExactHistogram h;
  h.add(-5);
  h.add(-5);
  h.add(5);
  EXPECT_EQ(h.distinct(), 2u);
  EXPECT_EQ(h.max_multiplicity(), 2u);
}

}  // namespace
}  // namespace rftc
