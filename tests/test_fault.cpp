// Fault-injection layer (docs/ROBUSTNESS.md): seeded determinism of the
// injector, the zero-rate golden-equivalence guard (a disarmed spec leaves
// the whole pipeline bit-identical to a fault-free build), thread-count
// invariance of faulted parallel acquisition, and the per-family fault
// semantics.
#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "aes/aes128.hpp"
#include "analysis/cpa.hpp"
#include "fault/campaign.hpp"
#include "rftc/device.hpp"
#include "trace/acquisition.hpp"
#include "util/parallel.hpp"
#include "cpa_oracle.hpp"

namespace rftc {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(par::thread_count()) {}
  ~ThreadCountGuard() { par::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

aes::Key test_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i)
    k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x2B + 7 * i);
  return k;
}

core::RftcDevice make_device(const fault::FaultSpec& spec,
                             std::uint64_t seed = 1, int m = 3, int p = 8) {
  core::PlannerParams pp;
  pp.m_outputs = m;
  pp.p_configs = p;
  pp.seed = seed;
  core::ControllerParams cp;
  cp.lfsr_seed_lo = seed * 0x9E3779B97F4A7C15ULL + 1;
  cp.lfsr_seed_hi = seed ^ 0xDEADBEEFCAFEBABEULL;
  cp.faults = spec;
  return core::RftcDevice(test_key(), core::plan_frequencies(pp), cp);
}

// ---------------------------------------------------------------------------
// Injector determinism contract.
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSpecSameSaltReproducesEveryDecision) {
  fault::FaultSpec spec;
  spec.drp_corrupt_rate = 0.3;
  spec.drp_drop_rate = 0.2;
  spec.lock_loss_rate = 0.1;
  spec.mux_glitch_rate = 0.25;
  spec.critical_path_ps = 25000;
  spec.jitter_ps = 500;
  fault::FaultInjector a(spec), b(spec);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.drop_drp_write(), b.drop_drp_write()) << i;
    EXPECT_EQ(a.corrupt_drp_word(0xBEEF), b.corrupt_drp_word(0xBEEF)) << i;
    EXPECT_EQ(a.lose_lock(), b.lose_lock()) << i;
    EXPECT_EQ(a.mux_glitch(), b.mux_glitch()) << i;
    EXPECT_EQ(a.timing_violation_flips(24800), b.timing_violation_flips(24800))
        << i;
  }
  EXPECT_EQ(a.counts().total(), b.counts().total());
  EXPECT_GT(a.counts().total(), 0u);
}

TEST(FaultInjector, SaltSeparatesControllerAndEngineStreams) {
  fault::FaultSpec spec;
  spec.mux_glitch_rate = 0.5;
  fault::FaultInjector controller_side(spec, 0), engine_side(spec, 1);
  bool diverged = false;
  for (int i = 0; i < 256 && !diverged; ++i)
    diverged = controller_side.mux_glitch() != engine_side.mux_glitch();
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, DisarmedFamiliesConsumeNoRandomness) {
  // Interleaving calls to zero-rate families must not perturb the armed
  // family's decision sequence — families are independent streams in
  // effect, even though one PRNG backs them.
  fault::FaultSpec spec;
  spec.mux_glitch_rate = 0.4;
  fault::FaultInjector clean(spec), interleaved(spec);
  for (int i = 0; i < 500; ++i) {
    (void)interleaved.drop_drp_write();      // rate 0: no draw
    (void)interleaved.corrupt_drp_word(i & 0xFFFF);
    (void)interleaved.lose_lock();
    (void)interleaved.timing_violation_flips(20000);  // model off: no draw
    EXPECT_EQ(clean.mux_glitch(), interleaved.mux_glitch()) << i;
  }
}

TEST(FaultInjector, CorruptedWordFlipsOneOrTwoDistinctBits) {
  fault::FaultSpec spec;
  spec.drp_corrupt_rate = 1.0;
  fault::FaultInjector inj(spec);
  for (int i = 0; i < 500; ++i) {
    const std::uint16_t word = static_cast<std::uint16_t>(i * 131);
    const auto corrupted = inj.corrupt_drp_word(word);
    ASSERT_TRUE(corrupted.has_value());
    const int flipped = __builtin_popcount(*corrupted ^ word);
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 2);
  }
  EXPECT_EQ(inj.counts().drp_corruptions, 500u);
}

// ---------------------------------------------------------------------------
// Golden equivalence: all rates zero => bit-identical to the default build.
// ---------------------------------------------------------------------------

TEST(FaultGoldenEquivalence, ZeroRateSpecIsBitIdenticalToDefaultDevice) {
  core::RftcDevice reference = make_device(fault::FaultSpec{});
  fault::FaultSpec disarmed;  // all rates zero, timing off...
  disarmed.seed = 0x1234567890ABCDEFULL;  // ...so its seed must not matter
  disarmed.margin_ps = 9999;              // ignored while critical_path == 0
  core::RftcDevice candidate = make_device(disarmed);
  EXPECT_EQ(candidate.controller().fault_injector(), nullptr);
  EXPECT_EQ(candidate.engine_fault_injector(), nullptr);

  Xoshiro256StarStar rng(42);
  for (int e = 0; e < 500; ++e) {
    const aes::Block pt = trace::random_block(rng);
    const core::EncryptionRecord a = reference.encrypt(pt);
    const core::EncryptionRecord b = candidate.encrypt(pt);
    ASSERT_EQ(a.ciphertext, b.ciphertext) << "encryption " << e;
    ASSERT_EQ(a.ciphertext, aes::encrypt(pt, test_key()));
    ASSERT_EQ(a.fault_flips, 0);
    ASSERT_EQ(b.fault_flips, 0);
    ASSERT_EQ(a.schedule.global_start, b.schedule.global_start);
    ASSERT_EQ(a.schedule.slots.size(), b.schedule.slots.size());
    for (std::size_t i = 0; i < a.schedule.slots.size(); ++i) {
      ASSERT_EQ(a.schedule.slots[i].edge_time, b.schedule.slots[i].edge_time);
      ASSERT_EQ(a.schedule.slots[i].period, b.schedule.slots[i].period);
    }
    ASSERT_EQ(a.activity.cycles().size(), b.activity.cycles().size());
    for (std::size_t i = 0; i < a.activity.cycles().size(); ++i) {
      ASSERT_EQ(a.activity.cycles()[i].state, b.activity.cycles()[i].state);
      ASSERT_EQ(a.activity.cycles()[i].state_hd,
                b.activity.cycles()[i].state_hd);
      ASSERT_EQ(a.activity.cycles()[i].aux_hw, b.activity.cycles()[i].aux_hw);
    }
  }
  EXPECT_EQ(reference.controller().stats().reconfigurations(),
            candidate.controller().stats().reconfigurations());
  EXPECT_EQ(candidate.controller().stats().lock_failures(), 0u);
  EXPECT_EQ(candidate.controller().stats().fallbacks(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism of the faulted pipeline under parallelism.
// ---------------------------------------------------------------------------

fault::FaultSpec campaign_spec() {
  fault::FaultSpec spec;
  spec.drp_corrupt_rate = 0.05;
  spec.drp_drop_rate = 0.02;
  spec.lock_loss_rate = 0.02;
  spec.mux_glitch_rate = 0.01;
  spec.critical_path_ps = 25000;
  spec.jitter_ps = 400;
  spec.seed = 0xFA017;
  return spec;
}

/// Pure shard factory over a *faulted* RFTC device: each shard gets its own
/// device, hence its own injector streams salted by the shard index.
trace::CaptureShardFactory faulted_factory() {
  return [](std::size_t shard) {
    fault::FaultSpec spec = campaign_spec();
    spec.seed += shard;
    auto dev =
        std::make_shared<core::RftcDevice>(make_device(spec, 1 + shard));
    trace::PowerModelParams pm;
    return trace::CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        trace::TraceSimulator(pm, 0x5151 + shard)};
  };
}

TEST(FaultDeterminism, FaultedParallelAcquisitionIsThreadCountInvariant) {
  ThreadCountGuard guard;
  std::unique_ptr<trace::TraceSet> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    par::set_thread_count(threads);
    trace::TraceSet set = trace::acquire_random_parallel(
        faulted_factory(), 300, /*seed=*/17, /*shard_size=*/64);
    ASSERT_EQ(set.size(), 300u);
    if (!reference) {
      reference = std::make_unique<trace::TraceSet>(std::move(set));
      continue;
    }
    ASSERT_EQ(reference->size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      ASSERT_EQ(reference->plaintext(i), set.plaintext(i)) << i;
      ASSERT_EQ(reference->ciphertext(i), set.ciphertext(i)) << i;
      ASSERT_EQ(std::memcmp(reference->trace(i).data(), set.trace(i).data(),
                            set.samples() * sizeof(float)),
                0)
          << i;
    }
  }

  // The CPA engine and the scalar oracle digest the faulted capture
  // identically (traces are ADC-quantized, so class-sum accumulation is
  // bit-exact vs the per-trace update).
  const std::vector<int> bytes{0, 5, 10};
  analysis::CpaOracle streaming(reference->samples(), bytes);
  analysis::CpaEngine batched(reference->samples(), bytes);
  for (std::size_t i = 0; i < reference->size(); ++i) {
    streaming.add(reference->ciphertext(i), reference->trace(i));
    batched.add(reference->ciphertext(i), reference->trace(i));
  }
  const auto rs = streaming.report();
  const auto rb = batched.report();
  ASSERT_EQ(rs.size(), rb.size());
  for (std::size_t b = 0; b < rs.size(); ++b) {
    EXPECT_EQ(rs[b].best_guess(), rb[b].best_guess()) << "byte " << b;
    EXPECT_EQ(rs[b].peak_abs_corr, rb[b].peak_abs_corr) << "byte " << b;
  }
}

TEST(FaultDeterminism, CampaignIsAPureFunctionOfItsSeed) {
  fault::CampaignParams params;
  params.p = 4;
  params.encryptions_per_cell = 60;
  params.drp_rates = {0.0, 0.1};
  params.margins_ps = {0, 4000};
  params.seed = 99;
  const fault::CampaignResult a = fault::run_fault_campaign(params);
  const fault::CampaignResult b = fault::run_fault_campaign(params);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].faulty_ciphertexts, b.cells[i].faulty_ciphertexts);
    EXPECT_EQ(a.cells[i].injected_faults, b.cells[i].injected_faults);
    EXPECT_EQ(a.cells[i].lock_failures, b.cells[i].lock_failures);
    EXPECT_EQ(a.cells[i].fallbacks, b.cells[i].fallbacks);
    EXPECT_EQ(a.cells[i].completion_entropy_bits,
              b.cells[i].completion_entropy_bits);
    EXPECT_TRUE(a.cells[i].clock_always_locked);
  }
  EXPECT_EQ(a.baseline_entropy_bits, b.baseline_entropy_bits);
}

// ---------------------------------------------------------------------------
// Per-family semantics.
// ---------------------------------------------------------------------------

TEST(FaultTiming, ViolatedRoundsCorruptTheCiphertext) {
  fault::FaultSpec spec;
  spec.critical_path_ps = 30000;
  spec.jitter_ps = 0;  // deterministic threshold
  fault::FaultInjector inj(spec);
  aes::RoundEngine engine(test_key());
  engine.set_fault_injector(&inj);

  // All 10 rounds at 20833 ps < 30000 ps: every latch captures early.
  const std::vector<Picoseconds> fast(10, 20833);
  const aes::Block pt{};
  const aes::EncryptionActivity bad = engine.encrypt(pt, fast);
  EXPECT_EQ(bad.injected_flips(), 10);
  EXPECT_NE(bad.ciphertext(), aes::encrypt(pt, test_key()));
  EXPECT_EQ(inj.counts().timing_violations, 10u);

  // All rounds slower than the critical path: timing met, clean output.
  const std::vector<Picoseconds> slow(10, 40000);
  const aes::EncryptionActivity good = engine.encrypt(pt, slow);
  EXPECT_EQ(good.injected_flips(), 0);
  EXPECT_EQ(good.ciphertext(), aes::encrypt(pt, test_key()));
}

TEST(FaultTiming, MarginRestoresTimingClosure) {
  fault::FaultSpec spec;
  spec.critical_path_ps = 25000;
  spec.margin_ps = 5000;  // required period drops to 20000 ps
  spec.jitter_ps = 0;
  fault::FaultInjector inj(spec);
  aes::RoundEngine engine(test_key());
  engine.set_fault_injector(&inj);
  const std::vector<Picoseconds> periods(10, 20833);
  const aes::Block pt{};
  EXPECT_EQ(engine.encrypt(pt, periods).injected_flips(), 0);
}

TEST(FaultMux, GlitchRateOneCorruptsSwitchedEncryptions) {
  fault::FaultSpec spec;
  spec.mux_glitch_rate = 1.0;
  core::RftcDevice device = make_device(spec, 7);
  Xoshiro256StarStar rng(3);
  int faulted = 0;
  for (int e = 0; e < 50; ++e) {
    const aes::Block pt = trace::random_block(rng);
    const core::EncryptionRecord rec = device.encrypt(pt);
    const auto& sites = device.controller().glitch_faults();
    ASSERT_EQ(rec.fault_flips, static_cast<int>(sites.size()));
    for (const fault::FaultSite& site : sites) {
      ASSERT_GE(site.round, 1);
      ASSERT_LE(site.round, aes::kRounds);
      ASSERT_GE(site.bit, 0);
      ASSERT_LT(site.bit, 128);
    }
    if (rec.fault_flips > 0) {
      ++faulted;
      EXPECT_NE(rec.ciphertext, aes::encrypt(pt, test_key()));
    }
  }
  // With M=3 outputs, nearly every 10-round schedule switches clocks at
  // least once, so a rate-1.0 glitch family must corrupt most encryptions.
  EXPECT_GT(faulted, 25);
  ASSERT_NE(device.controller().fault_injector(), nullptr);
  EXPECT_EQ(device.controller().fault_injector()->counts().mux_glitches,
            device.controller().fault_injector()->counts().bits_flipped);
}

TEST(FaultDrp, CertainCorruptionNeverLetsABadLockThrough) {
  fault::FaultSpec spec;
  spec.drp_corrupt_rate = 1.0;  // every DRP write lands corrupted
  core::RftcDevice device = make_device(spec, 11);
  // A failed draw costs ~200 us of simulated time (watchdog deadlines plus
  // exponential backoff), so run long enough for several fallback windows.
  Xoshiro256StarStar rng(5);
  for (int e = 0; e < 2000; ++e) {
    const aes::Block pt = trace::random_block(rng);
    const core::EncryptionRecord rec = device.encrypt(pt);
    ASSERT_TRUE(device.controller().active_locked()) << "encryption " << e;
    // No engine-side fault family is armed: ciphertexts stay correct even
    // while every reconfiguration attempt is failing.
    ASSERT_EQ(rec.ciphertext, aes::encrypt(pt, test_key()));
  }
  const core::ControllerStats& stats = device.controller().stats();
  EXPECT_GT(stats.lock_failures(), 0u);
  EXPECT_GT(stats.fallbacks(), 0u);
  // Every configuration draw fails all 1 + max_retries (= 4) attempts, so
  // the counters are locked in ratio: one initial draw plus one per
  // fallback, each costing exactly 4 attempts / 3 retries / 4 failures.
  const std::uint64_t draws = 1 + stats.fallbacks();
  EXPECT_EQ(stats.reconfigurations(), 4 * draws);
  EXPECT_EQ(stats.recovery_retries(), 3 * draws);
  EXPECT_EQ(stats.lock_failures(), 4 * draws);
}


// ---------------------------------------------------------------------------
// RFTC_FAULT_* environment overrides (docs/ROBUSTNESS.md).
// ---------------------------------------------------------------------------

class FaultEnvGuard {
 public:
  ~FaultEnvGuard() {
    for (const char* name :
         {"RFTC_FAULT_DRP_CORRUPT", "RFTC_FAULT_DRP_DROP",
          "RFTC_FAULT_LOCK_LOSS", "RFTC_FAULT_MUX_GLITCH",
          "RFTC_FAULT_CRITICAL_PATH_PS", "RFTC_FAULT_MARGIN_PS",
          "RFTC_FAULT_JITTER_PS", "RFTC_FAULT_FLIPS", "RFTC_FAULT_SEED"})
      ::unsetenv(name);
  }
};

TEST(FaultSpecEnv, CleanEnvironmentYieldsTheDisarmedDefaults) {
  const FaultEnvGuard guard;
  const fault::FaultSpec spec = fault::FaultSpec::from_env();
  EXPECT_FALSE(spec.any());
  EXPECT_FALSE(spec.clocking_any());
  EXPECT_FALSE(spec.timing_enabled());
  EXPECT_EQ(spec.seed, fault::FaultSpec{}.seed);
  EXPECT_EQ(spec.flips_per_violation, 1);
}

TEST(FaultSpecEnv, VariablesArmEveryFamily) {
  const FaultEnvGuard guard;
  ::setenv("RFTC_FAULT_DRP_CORRUPT", "0.25", 1);
  ::setenv("RFTC_FAULT_DRP_DROP", "0.125", 1);
  ::setenv("RFTC_FAULT_LOCK_LOSS", "0.5", 1);
  ::setenv("RFTC_FAULT_MUX_GLITCH", "0.0625", 1);
  ::setenv("RFTC_FAULT_CRITICAL_PATH_PS", "25000", 1);
  ::setenv("RFTC_FAULT_MARGIN_PS", "2000", 1);
  ::setenv("RFTC_FAULT_JITTER_PS", "400", 1);
  ::setenv("RFTC_FAULT_FLIPS", "2", 1);
  ::setenv("RFTC_FAULT_SEED", "0x1234", 1);  // base-0 parse: hex accepted
  const fault::FaultSpec spec = fault::FaultSpec::from_env();
  EXPECT_DOUBLE_EQ(spec.drp_corrupt_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.drp_drop_rate, 0.125);
  EXPECT_DOUBLE_EQ(spec.lock_loss_rate, 0.5);
  EXPECT_DOUBLE_EQ(spec.mux_glitch_rate, 0.0625);
  EXPECT_EQ(spec.critical_path_ps, 25000);
  EXPECT_EQ(spec.margin_ps, 2000);
  EXPECT_EQ(spec.jitter_ps, 400);
  EXPECT_EQ(spec.flips_per_violation, 2);
  EXPECT_EQ(spec.seed, 0x1234u);
  EXPECT_TRUE(spec.any());
  EXPECT_TRUE(spec.clocking_any());
  EXPECT_TRUE(spec.timing_enabled());
}

TEST(FaultSpecEnv, MalformedValuesFallBackToDefaults) {
  const FaultEnvGuard guard;
  ::setenv("RFTC_FAULT_DRP_CORRUPT", "not-a-number", 1);
  ::setenv("RFTC_FAULT_CRITICAL_PATH_PS", "", 1);
  ::setenv("RFTC_FAULT_SEED", "bogus", 1);
  const fault::FaultSpec spec = fault::FaultSpec::from_env();
  EXPECT_DOUBLE_EQ(spec.drp_corrupt_rate, 0.0);
  EXPECT_EQ(spec.critical_path_ps, 0);
  EXPECT_EQ(spec.seed, fault::FaultSpec{}.seed);
  EXPECT_FALSE(spec.any());
}

}  // namespace
}  // namespace rftc

