#include "analysis/cpa.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aes/leakage.hpp"
#include "analysis/attacks.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "util/rng.hpp"
#include "cpa_oracle.hpp"

namespace rftc::analysis {
namespace {

aes::Key test_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i) k[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(0x2B + 7 * i);
  return k;
}

TEST(CpaEngine, Validation) {
  EXPECT_THROW(CpaEngine(0, {0}), std::invalid_argument);
  EXPECT_THROW(CpaEngine(4, {}), std::invalid_argument);
  EXPECT_THROW(CpaEngine(4, {16}), std::invalid_argument);
  CpaEngine e(4, {0});
  std::vector<float> wrong(5);
  EXPECT_THROW(e.add(aes::Block{}, wrong), std::invalid_argument);
}

TEST(CpaEngine, RecoversKeyFromSyntheticNoiselessLeakage) {
  // Traces with one sample that *is* the correct-key hypothesis: the
  // correct guess correlates perfectly.
  const aes::Key key = test_key();
  const aes::KeySchedule ks = aes::expand_key(key);
  const aes::Block rk10 = ks[10];
  Xoshiro256StarStar rng(5);
  CpaEngine engine(2, {0, 5, 10, 15});
  for (int i = 0; i < 400; ++i) {
    aes::Block pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    const aes::Block ct = aes::encrypt(pt, key);
    // Sample 0: noise; sample 1: total last-round register swing.
    const aes::EncryptionActivity act(pt, ks, aes::Block{});
    std::vector<float> tr = {
        static_cast<float>(rng.gaussian()),
        static_cast<float>(act.cycles()[10].state_hd)};
    engine.add(ct, tr);
  }
  const AttackCheckpoint ev = evaluate_attack_checkpoint(engine, rk10);
  EXPECT_TRUE(ev.recovered);
  EXPECT_EQ(ev.mean_rank, 1.0);
  EXPECT_EQ(ev.max_rank, 1);
  for (const auto& rep : engine.report()) {
    EXPECT_EQ(rep.best_guess(),
              rk10[static_cast<std::size_t>(rep.byte_pos)]);
    EXPECT_EQ(rep.rank(rk10[static_cast<std::size_t>(rep.byte_pos)]), 1);
  }
}

TEST(CpaEngine, FailsOnPureNoise) {
  Xoshiro256StarStar rng(7);
  const aes::Block rk10{};  // arbitrary "correct" key
  CpaEngine engine(4, {0});
  for (int i = 0; i < 500; ++i) {
    aes::Block ct{};
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
    std::vector<float> tr(4);
    for (auto& v : tr) v = static_cast<float>(rng.gaussian());
    engine.add(ct, tr);
  }
  // With 256 guesses and noise, rank 1 for a fixed guess is ~1/256 likely.
  EXPECT_GT(evaluate_attack_checkpoint(engine, rk10).mean_rank, 5.0);
}

TEST(CpaEngine, RankCountsStrictlyBetterGuesses) {
  CpaEngine::ByteReport rep;
  rep.byte_pos = 0;
  rep.peak_abs_corr.fill(0.1);
  rep.peak_abs_corr[42] = 0.9;
  rep.peak_abs_corr[43] = 0.5;
  EXPECT_EQ(rep.best_guess(), 42);
  EXPECT_EQ(rep.rank(42), 1);
  EXPECT_EQ(rep.rank(43), 2);
  EXPECT_EQ(rep.rank(0), 3);  // ties with all the 0.1 entries -> rank 3
}

TEST(CpaEngine, RecoversKeyFromSimulatedUnprotectedTraces) {
  // End-to-end: unprotected fixed-clock device through the oscilloscope
  // model, attacked on the downsampled trace — the paper's baseline attack
  // (~2,000 traces there; our scaled noise breaks in a few hundred).
  const aes::Key key = test_key();
  core::ScheduledAesDevice dev(
      key, std::make_unique<sched::FixedClockScheduler>(48.0));
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, 31);
  Xoshiro256StarStar rng(32);
  const trace::TraceSet raw = trace::acquire_random(
      [&](const aes::Block& pt) { return dev.encrypt(pt); }, sim, 1'500, rng);
  const trace::TraceSet set = raw.downsampled(4);

  CpaEngine engine(set.samples(), {0, 3, 7, 12});
  for (std::size_t i = 0; i < set.size(); ++i)
    engine.add(set.ciphertext(i), set.trace(i));
  const aes::Block rk10 = aes::expand_key(key)[10];
  const AttackCheckpoint ev = evaluate_attack_checkpoint(engine, rk10);
  EXPECT_TRUE(ev.recovered) << "mean rank " << ev.mean_rank;
}

TEST(CpaEngine, FirstRoundModelRecoversMasterKey) {
  // The first-round HW target attacks the plaintext-load/round-1 leakage
  // and recovers master-key bytes directly.
  const aes::Key key = test_key();
  Xoshiro256StarStar rng(55);
  CpaEngine engine(2, {0, 9}, aes::LeakageModel::kFirstRoundHw);
  for (int i = 0; i < 600; ++i) {
    aes::Block pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    const aes::Block ct = aes::encrypt(pt, key);
    // Sample 1 carries the true first-round S-box HW of the two bytes.
    const double h =
        aes::first_round_hw_hypothesis(pt, 0, key[0]) +
        aes::first_round_hw_hypothesis(pt, 9, key[9]);
    std::vector<float> tr = {static_cast<float>(rng.gaussian()),
                             static_cast<float>(h + 0.3 * rng.gaussian())};
    engine.add(pt, ct, tr);
  }
  EXPECT_TRUE(evaluate_attack_checkpoint(engine, key).recovered);
}

TEST(CpaEngine, FirstRoundModelRejectsCiphertextOnlyAdd) {
  CpaEngine engine(2, {0}, aes::LeakageModel::kFirstRoundHw);
  EXPECT_THROW(engine.add(aes::Block{}, std::vector<float>{1.f, 2.f}),
               std::logic_error);
}

TEST(CpaEngine, CountTracksAdds) {
  CpaEngine e(2, {0});
  EXPECT_EQ(e.count(), 0u);
  e.add(aes::Block{}, std::vector<float>{1.0f, 2.0f});
  EXPECT_EQ(e.count(), 1u);
}

TEST(CpaEngine, OversizedBatchIsRejectedAndTheEngineKept) {
  const std::vector<int> all = {0, 1, 2,  3,  4,  5,  6,  7,
                                8, 9, 10, 11, 12, 13, 14, 15};
  CpaEngine e(8, all);
  const std::size_t batch = e.batch_size();
  // 2^61 * 8 samples and 2^61 * 16 bytes both wrap to 0; 2^32 does not
  // wrap, but the class sort indexes the tile with uint32_t.
  for (const std::size_t bad :
       {std::size_t{1} << 61, std::size_t{1} << 32, std::size_t{0}})
    EXPECT_THROW(e.set_batch_size(bad), std::invalid_argument) << bad;
  EXPECT_EQ(e.batch_size(), batch);
  // The kept engine still works: same report as the oracle on one trace.
  CpaOracle oracle(8, all);
  e.add(aes::Block{}, std::vector<float>(8, 1.0f));
  oracle.add(aes::Block{}, std::vector<float>(8, 1.0f));
  EXPECT_EQ(e.count(), 1u);
  const auto got = e.report(), want = oracle.report();
  ASSERT_EQ(got.size(), all.size());
  for (std::size_t b = 0; b < all.size(); ++b)
    EXPECT_EQ(got[b].peak_abs_corr, want[b].peak_abs_corr) << "byte " << b;
}

}  // namespace
}  // namespace rftc::analysis
