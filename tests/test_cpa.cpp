#include "analysis/cpa.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "aes/leakage.hpp"
#include "analysis/attacks.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"
#include "cpa_oracle.hpp"
#include "mutation.hpp"

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

// ---- Integer sums -----------------------------------------------------------

/// A trace stream with known blocks.
struct Stream {
  std::vector<aes::Block> pts, cts;
  std::vector<std::vector<float>> traces;
  void push(Xoshiro256StarStar& rng, std::vector<float> tr) {
    aes::Block pt{}, ct{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
    pts.push_back(pt);
    cts.push_back(ct);
    traces.push_back(std::move(tr));
  }
};

/// A box average of four 8-bit ADC codes times the 400/256 mV LSB — the
/// values a downsampled simulator trace holds, all on the grid 2^-6 — times
/// `quantum / (25 / 64)`: the default keeps that grid.
std::vector<float> adc_trace(Xoshiro256StarStar& rng, std::size_t samples,
                             float quantum = 25.0f / 64) {
  std::vector<float> tr(samples);
  for (float& v : tr) {
    int sum = 0;
    for (int k = 0; k < 4; ++k) sum += static_cast<int>(rng.uniform(257));
    v = static_cast<float>(sum) * quantum;
  }
  return tr;
}

Stream adc_stream(std::size_t n, std::size_t samples, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  Stream s;
  for (std::size_t i = 0; i < n; ++i) s.push(rng, adc_trace(rng, samples));
  return s;
}

/// Feeds traces [begin, end) of `s` to `e`.
void feed(CpaEngine& e, const Stream& s, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i)
    e.add(s.pts[i], s.cts[i], s.traces[i]);
}

/// Same snapshot bytes and bit-identical report.
void expect_same_bits(const CpaEngine& a, const CpaEngine& b) {
  EXPECT_EQ(a.serialize(), b.serialize());
  const auto ra = a.report(), rb = b.report();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_EQ(std::memcmp(ra[i].peak_abs_corr.data(),
                          rb[i].peak_abs_corr.data(),
                          sizeof ra[i].peak_abs_corr),
              0)
        << "byte " << ra[i].byte_pos;
}

/// An empty engine on double sums: a fresh engine adopts the
/// representation of the first snapshot folded into it, here an all-zero
/// tag-1 (double) one.  The reference the integer path must match.
CpaEngine double_engine(
    std::size_t samples, const std::vector<int>& bytes,
    aes::LeakageModel model = aes::LeakageModel::kLastRoundHd) {
  const bool last_round = model == aes::LeakageModel::kLastRoundHd;
  const std::size_t nb = bytes.size(), planes = last_round ? 8 : 1;
  std::vector<unsigned char> blob;
  wire::Writer w(wire::append_to(blob));
  w.magic("RFTCCPA1");
  w.u32(1);  // engine tag: double sums
  w.u32(last_round ? 0 : 1);
  w.u64(samples);
  w.u64(nb);
  w.u64(0);  // traces
  for (const int b : bytes) w.u32(static_cast<std::uint32_t>(b));
  // t, t2, sum_h, sum_h2, W and the class sums, all zero.
  const std::vector<std::uint64_t> zeros(
      2 * samples + 2 * 256 * nb + (last_round ? nb * samples : 0) +
      nb * 256 * planes * samples);
  w.array(zeros.data(), zeros.size());
  w.seal();
  return CpaEngine::deserialize(blob);
}

TEST(CpaEngine, IntegerSumsMatchDoubleSumsBitForBit) {
  const Stream s = adc_stream(1'300, 37, 0x1D7);
  for (const auto model :
       {aes::LeakageModel::kLastRoundHd, aes::LeakageModel::kFirstRoundHw}) {
    for (const std::size_t batch : {std::size_t{64}, std::size_t{1'024}}) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      CpaEngine exact(37, {0, 6, 13}, model);
      CpaEngine dbl = double_engine(37, {0, 6, 13}, model);
      exact.set_batch_size(batch);
      dbl.set_batch_size(batch);
      feed(exact, s, 0, s.traces.size());
      feed(dbl, s, 0, s.traces.size());
      (void)exact.report();
      EXPECT_TRUE(exact.integer_sums());
      EXPECT_FALSE(dbl.integer_sums());
      expect_same_bits(exact, dbl);
      // Canonical: the double engine's exact sums snapshot as integers too.
      EXPECT_EQ(dbl.serialize().at(8), 3);
    }
  }
}

TEST(CpaEngine, FinerGridRescalesAndStaysExact) {
  // Traces on 2^-6, then some on 2^-9 mid-tile: the sums move to the finer
  // grid and stay integers, with the double engine's bits.
  Stream s = adc_stream(600, 19, 0x5CA1E);
  Xoshiro256StarStar rng(3);
  for (int i = 0; i < 300; ++i) s.push(rng, adc_trace(rng, 19, 25.0f / 512));
  CpaEngine exact(19, {2, 9});
  CpaEngine dbl = double_engine(19, {2, 9});
  exact.set_batch_size(256);
  feed(exact, s, 0, 600);
  (void)exact.report();
  ASSERT_TRUE(exact.integer_sums());
  feed(exact, s, 600, s.traces.size());
  feed(dbl, s, 0, s.traces.size());
  (void)exact.report();
  EXPECT_TRUE(exact.integer_sums());
  expect_same_bits(exact, dbl);
}

TEST(CpaEngine, MidStreamPromotionIsBitIdentical) {
  // Off-grid traces promote the integer sums to doubles mid-tile, exactly:
  // a non-dyadic trace (24-bit codes), and one whose codes on the grid
  // exceed int16.
  for (const float odd : {1.0f / 3, 40'000.0f}) {
    SCOPED_TRACE("odd sample " + std::to_string(odd));
    Stream s = adc_stream(900, 23, 0xB0B);
    s.traces[700][5] = odd;
    for (std::size_t batch : {std::size_t{256}, std::size_t{1'024}}) {
      CpaEngine exact(23, {0, 8, 15});
      CpaEngine dbl = double_engine(23, {0, 8, 15});
      exact.set_batch_size(batch);
      feed(exact, s, 0, 700);
      EXPECT_EQ(exact.integer_sums(), batch == 256);
      feed(exact, s, 700, 900);
      feed(dbl, s, 0, 900);
      (void)exact.report();
      EXPECT_FALSE(exact.integer_sums());
      expect_same_bits(exact, dbl);
    }
  }
}

TEST(CpaEngine, ClassSumNearTheInt32BoundPromotes) {
  // Every trace in one class, sample 0 at the largest int16 code: its
  // class sum climbs by 32,767 a trace and would pass INT32_MAX at trace
  // 65,539.  The flush that would cross promotes to doubles first.
  CpaEngine exact(2, {0});
  CpaEngine dbl = double_engine(2, {0});
  Xoshiro256StarStar rng(0x1B7);
  aes::Block ct{};
  ct[0] = 0x5A;
  const std::size_t batch = exact.batch_size();
  for (std::size_t i = 0; i < 70'000; ++i) {
    const std::vector<float> tr = {
        32'767.0f, static_cast<float>(static_cast<int>(rng.uniform(65'535)) -
                                      32'767)};
    exact.add(ct, tr);
    dbl.add(ct, tr);
    if (i + 1 == 65'536 / batch * batch) {
      (void)exact.report();
      EXPECT_TRUE(exact.integer_sums()) << "promoted early, at " << i + 1;
    }
  }
  (void)exact.report();
  EXPECT_FALSE(exact.integer_sums());
  expect_same_bits(exact, dbl);
}

TEST(CpaEngine, MixedRepresentationMergeIsBitIdentical) {
  const Stream s = adc_stream(800, 29, 0x3E7);
  Stream odd = adc_stream(300, 29, 0x3E8);
  for (auto& tr : odd.traces)
    for (float& v : tr) v /= 3;
  const auto engine = [](bool doubles) {
    CpaEngine e = doubles ? double_engine(29, {1, 4, 11})
                          : CpaEngine(29, {1, 4, 11});
    e.set_batch_size(128);
    return e;
  };
  CpaEngine a = engine(false);
  CpaEngine a_dbl = engine(true);
  CpaEngine b = engine(false);
  feed(a, s, 0, 500);
  feed(a_dbl, s, 0, 500);
  feed(b, odd, 0, 300);
  (void)a.report();
  (void)b.report();
  ASSERT_TRUE(a.integer_sums());
  ASSERT_FALSE(b.integer_sums());

  // Integer into double and double into integer, as engines and as blobs:
  // the integer sums convert exactly, so each equals the all-double merge.
  for (const bool blob : {false, true}) {
    SCOPED_TRACE(blob ? "blob" : "engine");
    CpaEngine ab = a, ab_dbl = a_dbl, ba = b, ba_dbl = b;
    if (blob) {
      ab.merge(b.serialize());
      ab_dbl.merge(b.serialize());
      ba.merge(a.serialize());
      ba_dbl.merge(a_dbl.serialize());
    } else {
      ab.merge(b);
      ab_dbl.merge(b);
      ba.merge(a);
      ba_dbl.merge(a_dbl);
    }
    EXPECT_FALSE(ab.integer_sums());
    expect_same_bits(ab, ab_dbl);
    expect_same_bits(ba, ba_dbl);
  }

  // Integer into integer across grids (2^-6 and 2^-9) stays integer and
  // matches one pass over both streams.
  Stream fine = s;
  Xoshiro256StarStar rng(9);
  for (std::size_t i = 500; i < 800; ++i)
    fine.traces[i] = adc_trace(rng, 29, 25.0f / 512);
  CpaEngine c = engine(false);
  CpaEngine whole = engine(true);
  feed(c, fine, 500, 800);
  feed(whole, fine, 0, 800);
  for (const bool blob : {false, true}) {
    CpaEngine ac = a, ca = c;
    if (blob) {
      ac.merge(c.serialize());
      ca.merge(a.serialize());
    } else {
      ac.merge(c);
      ca.merge(a);
    }
    (void)ac.report();
    (void)ca.report();
    EXPECT_TRUE(ac.integer_sums());
    EXPECT_TRUE(ca.integer_sums());
    expect_same_bits(ac, whole);
    expect_same_bits(ca, whole);
  }
}

/// The arrays of an integer (tag-3) snapshot of a one-byte last-round
/// engine over `samples` samples, decoded, and their re-encoding.
struct IntSnapshot {
  std::vector<unsigned char> header;  // magic .. byte position
  std::int32_t exp = 0;
  std::uint32_t width = 0;
  std::vector<std::int64_t> t, t2, h, h2, w, d;

  IntSnapshot(const std::vector<unsigned char>& blob, std::size_t samples) {
    wire::Reader r(blob, "test");
    r.check_crc();
    header.assign(blob.begin(), blob.begin() + 44);
    r.array(header.data(), 44);
    exp = static_cast<std::int32_t>(r.u32());
    width = r.u32();
    const auto ints = [&](std::size_t n, std::size_t bytes) {
      std::vector<std::int64_t> v(n);
      for (auto& x : v) {
        if (bytes == 8) {
          x = static_cast<std::int64_t>(r.u64());
        } else if (bytes == 4) {
          x = static_cast<std::int32_t>(r.u32());
        } else {
          std::int16_t h16 = 0;
          r.array(&h16, 1);
          x = h16;
        }
      }
      return v;
    };
    t = ints(samples, 8);
    t2 = ints(samples, 8);
    h = ints(256, 8);
    h2 = ints(256, 8);
    w = ints(samples, 8);
    d = ints(256 * 8 * samples, width);
    r.expect_end();
  }

  std::vector<unsigned char> encode() const {
    std::vector<unsigned char> out;
    wire::Writer wr(wire::append_to(out));
    wr.array(header.data(), header.size());
    wr.u32(static_cast<std::uint32_t>(exp));
    wr.u32(width);
    for (const auto* a : {&t, &t2, &h, &h2, &w})
      for (const std::int64_t x : *a) wr.u64(static_cast<std::uint64_t>(x));
    for (const std::int64_t x : d) {
      if (width == 4) {
        wr.u32(static_cast<std::uint32_t>(x));
      } else {
        const auto h16 = static_cast<std::int16_t>(x);
        wr.array(&h16, 1);
      }
    }
    wr.seal();
    return out;
  }
};

TEST(CpaEngine, CorruptIntegerSnapshotThrowsAndLeavesTheEngineUntouched) {
  // Codes on the grid 2^-3.
  Stream s;
  Xoshiro256StarStar rng(0xC0);
  for (int i = 0; i < 60; ++i) {
    std::vector<float> tr(4);
    for (float& v : tr) v = static_cast<float>(rng.uniform(64)) * 0.125f;
    s.push(rng, tr);
  }
  CpaEngine source(4, {3});
  feed(source, s, 0, 40);
  const std::vector<unsigned char> blob = source.serialize();
  const IntSnapshot good(blob, 4);
  ASSERT_EQ(good.width, 4u);
  ASSERT_EQ(good.encode(), blob);

  std::vector<std::pair<const char*, IntSnapshot>> bad;
  const auto edit = [&](const char* what, auto fn) {
    IntSnapshot c = good;
    fn(c);
    bad.emplace_back(what, c);
  };
  // The same sums on a finer grid: every value even, not canonical.
  edit("non-canonical grid", [](IntSnapshot& c) {
    ++c.exp;
    for (auto* a : {&c.t, &c.w, &c.d})
      for (auto& x : *a) x *= 2;
    for (auto& x : c.t2) x *= 4;
  });
  edit("class-sum width 2", [](IntSnapshot& c) { c.width = 2; });
  edit("negative sum of squares", [](IntSnapshot& c) { c.t2[1] = -c.t2[1]; });
  edit("trace sum past its squares",
       [](IntSnapshot& c) { c.t[2] = c.t2[2] + 1; });
  edit("W past eight times the squares",
       [](IntSnapshot& c) { c.w[0] = 8 * c.t2[0] + 1; });
  edit("sum of squares past 2^59",
       [](IntSnapshot& c) { c.t2[3] = (std::int64_t{1} << 59) + 1; });
  edit("hypothesis sum past 8 per trace",
       [](IntSnapshot& c) { c.h[5] = 8 * 40 + 1; });
  edit("negative hypothesis square sum", [](IntSnapshot& c) { c.h2[9] = -1; });
  edit("grid past 2^-256", [](IntSnapshot& c) { c.exp = 257; });
  edit("width 3", [](IntSnapshot& c) { c.width = 3; });
  edit("class sum at INT32_MIN", [](IntSnapshot& c) {
    c.d[7] = std::numeric_limits<std::int32_t>::min();
  });

  CpaEngine target(4, {3});
  feed(target, s, 40, 60);
  const std::vector<unsigned char> before = target.serialize();
  for (const auto& [what, snap] : bad) {
    SCOPED_TRACE(what);
    const std::vector<unsigned char> cand = snap.encode();
    EXPECT_THROW((void)CpaEngine::deserialize(cand), std::runtime_error);
    CpaEngine t = target;
    EXPECT_THROW(t.merge(cand), std::runtime_error);
    EXPECT_EQ(t.serialize(), before);
    EXPECT_EQ(t.count(), target.count());
  }
}

}  // namespace
}  // namespace rftc::analysis
