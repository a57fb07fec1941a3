// rftc::simd backend equivalence: the scalar fallback and the AVX2 kernels
// must be bit-identical on every input (simd.hpp's contract), and the
// analysis accumulators built on them (CpaEngine, WelchTTest) must
// produce bit-identical results for any RFTC_THREADS x RFTC_SIMD combo and
// merge associatively across batch boundaries.
#include "simd/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "aes/leakage.hpp"
#include "analysis/cpa.hpp"
#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "cpa_oracle.hpp"

namespace rftc {
namespace {

class BackendGuard {
 public:
  BackendGuard() : saved_(simd::backend()) {}
  ~BackendGuard() { simd::set_backend(saved_); }

 private:
  simd::Backend saved_;
};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(par::thread_count()) {}
  ~ThreadCountGuard() { par::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> b{simd::Backend::kScalar};
  if (simd::avx2_supported()) b.push_back(simd::Backend::kAvx2);
  return b;
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  // An empty vector's data() may be null, and memcmp on null is UB even
  // for a zero length.
  if (a.empty()) return;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

TEST(SimdBackend, ReportsAConsistentSelection) {
  BackendGuard guard;
  const simd::Backend b = simd::backend();
  if (b == simd::Backend::kAvx2) {
    EXPECT_TRUE(simd::avx2_supported());
    EXPECT_STREQ(simd::backend_name(), "avx2");
  } else {
    EXPECT_STREQ(simd::backend_name(), "scalar");
  }
  // The selection is published as a gauge for bench provenance.
  EXPECT_EQ(obs::Registry::global().gauge("rftc.simd.isa").value(),
            b == simd::Backend::kAvx2 ? 1.0 : 0.0);
}

TEST(SimdBackend, SetBackendSwitchesAndPublishes) {
  BackendGuard guard;
  simd::set_backend(simd::Backend::kScalar);
  EXPECT_EQ(simd::backend(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::backend_name(), "scalar");
  EXPECT_EQ(obs::Registry::global().gauge("rftc.simd.isa").value(), 0.0);
  if (!simd::avx2_supported()) {
    EXPECT_THROW(simd::set_backend(simd::Backend::kAvx2),
                 std::invalid_argument);
    return;
  }
  simd::set_backend(simd::Backend::kAvx2);
  EXPECT_EQ(simd::backend(), simd::Backend::kAvx2);
  EXPECT_EQ(obs::Registry::global().gauge("rftc.simd.isa").value(), 1.0);
}

// ---------------------------------------------------------------------------
// Raw kernel differentials: every kernel, both backends, awkward lengths
// (hitting the vector body and the scalar tail), bit-for-bit.
// ---------------------------------------------------------------------------

struct KernelInputs {
  std::vector<float> xf;
  std::vector<double> xd, acc1, acc2, acc3, st, st2;
  std::vector<std::uint8_t> bytes;
};

KernelInputs make_inputs(std::size_t n, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  KernelInputs in;
  in.xf.resize(n);
  in.xd.resize(n);
  in.acc1.resize(n);
  in.acc2.resize(n);
  in.acc3.resize(n);
  in.st.resize(n);
  in.st2.resize(n);
  in.bytes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.xf[i] = static_cast<float>(rng.gaussian());
    in.xd[i] = rng.gaussian();
    in.acc1[i] = rng.gaussian();
    in.acc2[i] = rng.gaussian();
    in.acc3[i] = std::fabs(rng.gaussian()) + 0.5;
    in.st[i] = rng.gaussian();
    in.st2[i] = in.st[i] * in.st[i] + std::fabs(rng.gaussian());
    in.bytes[i] = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return in;
}

TEST(SimdKernels, AllKernelsBitIdenticalAcrossBackends) {
  if (!simd::avx2_supported())
    GTEST_SKIP() << "no AVX2 on this host; single-backend build";
  BackendGuard guard;
  // Odd sizes exercise the scalar tails; 0 and 1 the degenerate paths.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{7}, std::size_t{33},
                              std::size_t{256}, std::size_t{1001}}) {
    const KernelInputs in = make_inputs(n, 1000 + n);
    struct Out {
      std::vector<double> d1, d2, d3;
      std::vector<std::uint8_t> b1;
      double peak = 0.0;
    };
    auto run = [&] {
      Out o;
      o.d1.assign(n, 0.25);
      o.d2.assign(n, -0.5);
      o.d3.assign(n, 1.5);
      o.b1.assign(n, 0);
      simd::accumulate_sums(in.xd.data(), o.d1.data(), o.d2.data(), n);
      simd::accumulate_sums_f(in.xf.data(), o.d1.data(), o.d2.data(), n);
      simd::add_f(in.xf.data(), o.d1.data(), n);
      simd::sub_f(in.xf.data(), o.d2.data(), n);
      simd::axpy(1.75, in.xd.data(), o.d1.data(), n);
      simd::axpy_f(-0.375, in.xf.data(), o.d2.data(), n);
      // Welford on three parallel accumulators (count/mean/m2).
      std::vector<double> cnt(in.acc3), mean(in.acc1), m2(in.acc2);
      for (double& v : m2) v = std::fabs(v);
      simd::welford_update(in.xd.data(), cnt.data(), mean.data(), m2.data(),
                           n);
      simd::welford_update_f(in.xf.data(), cnt.data(), mean.data(), m2.data(),
                             n);
      o.d3.assign(n, 0.0);
      simd::welch_t(cnt.data(), mean.data(), m2.data(), in.acc3.data(),
                    in.acc1.data(), in.st2.data(), o.d3.data(), n);
      o.d3.insert(o.d3.end(), cnt.begin(), cnt.end());
      o.d3.insert(o.d3.end(), mean.begin(), mean.end());
      o.d3.insert(o.d3.end(), m2.begin(), m2.end());
      o.peak = simd::peak_abs_correlation_scaled(
          static_cast<double>(n) + 2.0, 3.0, 11.0, in.st.data(),
          in.st2.data(), in.xd.data(), in.acc1.data(), 0x1.0p-8, n);
      o.peak += simd::peak_abs_correlation_scaled(
          static_cast<double>(n) + 2.0, 3.0, 11.0, in.st.data(),
          in.st2.data(), in.xd.data(), nullptr, 0x1.0p-8, n);
      simd::xor_popcount(in.bytes.data(), 0xa5, o.b1.data(), n);
      return o;
    };
    simd::set_backend(simd::Backend::kScalar);
    const Out s = run();
    simd::set_backend(simd::Backend::kAvx2);
    const Out v = run();
    expect_bits_equal(s.d1, v.d1, "d1");
    expect_bits_equal(s.d2, v.d2, "d2");
    expect_bits_equal(s.d3, v.d3, "welch/welford");
    EXPECT_EQ(s.b1, v.b1) << "xor_popcount n=" << n;
    EXPECT_EQ(std::memcmp(&s.peak, &v.peak, sizeof(double)), 0)
        << "peak_abs_correlation_scaled n=" << n;
  }

  // CRC-32: the AVX2 fold takes the 16-byte-aligned prefix of inputs of 64
  // bytes or more and the byte table the rest, so sweep every length across
  // those boundaries at every misalignment, MiB inputs with odd tails, and
  // incremental splits around the 16- and 64-byte block sizes.
  std::vector<std::uint8_t> buf((std::size_t{1} << 20) + 64);
  Xoshiro256StarStar rng(0xC3C32);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
  auto crc_on = [&](simd::Backend b, std::size_t off, std::size_t len) {
    simd::set_backend(b);
    return simd::crc32_update(0, buf.data() + off, len);
  };
  for (std::size_t off = 0; off < 16; ++off)
    for (std::size_t len = 0; len <= 300; ++len)
      ASSERT_EQ(crc_on(simd::Backend::kScalar, off, len),
                crc_on(simd::Backend::kAvx2, off, len))
          << "crc32 len=" << len << " off=" << off;
  for (const std::size_t len :
       {(std::size_t{1} << 20) - 7, std::size_t{1} << 20,
        (std::size_t{1} << 20) + 13})
    for (const std::size_t off : {std::size_t{0}, std::size_t{3}})
      EXPECT_EQ(crc_on(simd::Backend::kScalar, off, len),
                crc_on(simd::Backend::kAvx2, off, len))
          << "crc32 len=" << len << " off=" << off;

  // A running CRC carried across every split equals the one-shot value:
  // two-part splits, then one chain cycling through all the split sizes.
  constexpr std::size_t kSplits[] = {15, 16, 17, 63, 64, 65};
  constexpr std::size_t kMsg = 4096 + 5;
  const std::uint32_t whole = crc_on(simd::Backend::kScalar, 1, kMsg);
  for (const simd::Backend b : available_backends()) {
    simd::set_backend(b);
    const std::uint8_t* p = buf.data() + 1;
    for (const std::size_t split : kSplits)
      EXPECT_EQ(simd::crc32_update(simd::crc32_update(0, p, split), p + split,
                                   kMsg - split),
                whole)
          << "crc32 split=" << split << " backend=" << simd::backend_name();
    std::uint32_t chained = 0;
    for (std::size_t pos = 0, i = 0; pos < kMsg; ++i) {
      const std::size_t step = std::min(kSplits[i % 6], kMsg - pos);
      chained = simd::crc32_update(chained, p + pos, step);
      pos += step;
    }
    EXPECT_EQ(chained, whole) << "crc32 chain backend=" << simd::backend_name();
  }
}

/// The WHT as a plain stage loop over a [256][width] panel: stage h takes
/// row pairs (r, r + h) low to high, or high to low with `reversed`.
std::vector<double> wht256_by_stages(std::vector<double> p, std::size_t width,
                                     bool reversed = false) {
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t h = std::size_t{1} << (reversed ? 7 - i : i);
    for (std::size_t r = 0; r < 256; ++r) {
      if (r & h) continue;
      for (std::size_t c = 0; c < width; ++c) {
        const double a = p[r * width + c], b = p[(r + h) * width + c];
        p[r * width + c] = a + b;
        p[(r + h) * width + c] = a - b;
      }
    }
  }
  return p;
}

TEST(SimdKernels, Wht256MatchesTheStageLoopOnEveryBackend) {
  BackendGuard guard;
  // Widths hit the scalar tail only (1, 3), whole vectors (4, 16, 128) and
  // both (5, 125).
  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4}, std::size_t{5},
                                  std::size_t{16}, std::size_t{125},
                                  std::size_t{128}}) {
    // Values over ~120 binades with random signs: nearly every add rounds,
    // so any change of operation order changes the bits.
    Xoshiro256StarStar rng(0x3A11 + width);
    std::vector<double> in(256 * width);
    for (double& v : in)
      v = std::ldexp(rng.uniform01() + 0.5,
                     static_cast<int>(rng.uniform(121)) - 60) *
          (rng.uniform(2) == 0 ? 1.0 : -1.0);
    const std::vector<double> want = wht256_by_stages(in, width);
    ASSERT_NE(std::memcmp(want.data(),
                          wht256_by_stages(in, width, true).data(),
                          want.size() * sizeof(double)),
              0)
        << "input does not expose the stage order, width " << width;
    for (const simd::Backend b : available_backends()) {
      simd::set_backend(b);
      std::vector<double> got = in;
      simd::wht256(got.data(), width);
      SCOPED_TRACE(std::string(simd::backend_name()) +
                   " width=" + std::to_string(width));
      expect_bits_equal(want, got, "wht256");
    }
  }
}

TEST(SimdKernels, Crc32MatchesReferenceValuesOnEveryBackend) {
  BackendGuard guard;
  // The CRC-32/ISO-HDLC check value, a short (byte-table) input, and a
  // 1000-byte one that the AVX2 backend folds; expected values from zlib.
  std::vector<std::uint8_t> pattern(1000);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xff);
  for (const simd::Backend b : available_backends()) {
    simd::set_backend(b);
    EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u)
        << simd::backend_name();
    EXPECT_EQ(util::crc32(pattern.data(), pattern.size()), 0xC3905A1Du)
        << simd::backend_name();
    EXPECT_EQ(util::crc32(pattern.data(), 0), 0u) << simd::backend_name();
  }
}

TEST(SimdKernels, XorPopcountMatchesNaive) {
  BackendGuard guard;
  for (const simd::Backend b : available_backends()) {
    simd::set_backend(b);
    std::vector<std::uint8_t> pre(300), out(300);
    for (std::size_t i = 0; i < pre.size(); ++i)
      pre[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xff);
    simd::xor_popcount(pre.data(), 0x3c, out.data(), pre.size());
    for (std::size_t i = 0; i < pre.size(); ++i)
      EXPECT_EQ(out[i], __builtin_popcount(
                            static_cast<unsigned>(pre[i] ^ 0x3c)))
          << i;
  }
}

TEST(SimdKernels, WelchTDegenerateLanesAreZero) {
  BackendGuard guard;
  for (const simd::Backend b : available_backends()) {
    simd::set_backend(b);
    // Lane 0: both counts < 2.  Lane 1: zero variance both sides (denom 0).
    // Lane 2: a real t.  Lanes 3..5 replicate across the vector width.
    const std::vector<double> na = {1, 5, 5, 1, 5, 5};
    const std::vector<double> ma = {9, 2, 2, 9, 2, 2};
    const std::vector<double> m2a = {0, 0, 4, 0, 0, 4};
    const std::vector<double> nb = {1, 7, 7, 1, 7, 7};
    const std::vector<double> mb = {1, 2, 1, 1, 2, 1};
    const std::vector<double> m2b = {0, 0, 6, 0, 0, 6};
    std::vector<double> t(6, -1.0);
    simd::welch_t(na.data(), ma.data(), m2a.data(), nb.data(), mb.data(),
                  m2b.data(), t.data(), 6);
    EXPECT_EQ(t[0], 0.0);
    EXPECT_EQ(t[1], 0.0);
    EXPECT_GT(t[2], 0.0);
    EXPECT_EQ(t[3], t[0]);
    EXPECT_EQ(t[4], t[1]);
    EXPECT_EQ(t[5], t[2]);
    // Cross-check lane 2 against the RunningMoments reference arithmetic.
    const double va = (4.0 / 4.0) / 5.0, vb = (6.0 / 6.0) / 7.0;
    EXPECT_EQ(t[2], (2.0 - 1.0) / std::sqrt(va + vb));
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence: analysis accumulators across RFTC_THREADS x RFTC_SIMD.
// ---------------------------------------------------------------------------

constexpr std::size_t kThreadSweep[] = {1, 8};

/// ADC-quantized synthetic traces (multiples of the 400/256 mV quantum, as
/// every simulator output is) plus random plaintext/ciphertext blocks.
struct Campaign {
  std::vector<std::vector<float>> traces;
  std::vector<aes::Block> pts, cts;
};

Campaign make_campaign(std::size_t n_traces, std::size_t samples,
                       std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  constexpr float kQuantum = 400.0f / 256.0f;
  Campaign c;
  for (std::size_t i = 0; i < n_traces; ++i) {
    std::vector<float> tr(samples);
    for (auto& v : tr)
      v = kQuantum * static_cast<float>(static_cast<int>(rng.uniform(96)));
    c.traces.push_back(std::move(tr));
    aes::Block pt{}, ct{};
    for (auto& x : pt) x = static_cast<std::uint8_t>(rng.uniform(256));
    for (auto& x : ct) x = static_cast<std::uint8_t>(rng.uniform(256));
    c.pts.push_back(pt);
    c.cts.push_back(ct);
  }
  return c;
}

std::vector<double> signature(
    const std::vector<analysis::CpaEngine::ByteReport>& reports) {
  std::vector<double> sig;
  for (const auto& rep : reports)
    sig.insert(sig.end(), rep.peak_abs_corr.begin(), rep.peak_abs_corr.end());
  return sig;
}

std::vector<double> cpa_signature(const Campaign& c, aes::LeakageModel model,
                                  std::size_t batch) {
  analysis::CpaEngine eng(c.traces[0].size(), {0, 5, 15}, model);
  eng.set_batch_size(batch);
  for (std::size_t i = 0; i < c.traces.size(); ++i)
    eng.add(c.pts[i], c.cts[i], c.traces[i]);
  return signature(eng.report());
}

/// The same campaign through the scalar oracle, which uses no kernel.
std::vector<double> oracle_signature(const Campaign& c,
                                     aes::LeakageModel model) {
  analysis::CpaOracle oracle(c.traces[0].size(), {0, 5, 15}, model);
  for (std::size_t i = 0; i < c.traces.size(); ++i)
    oracle.add(c.pts[i], c.cts[i], c.traces[i]);
  return signature(oracle.report());
}

TEST(SimdGolden, CpaReportsBitIdenticalAcrossBackendsAndThreads) {
  ThreadCountGuard tguard;
  BackendGuard bguard;
  const Campaign c = make_campaign(150, 96, 0xc0ffee);
  for (const aes::LeakageModel model :
       {aes::LeakageModel::kLastRoundHd, aes::LeakageModel::kFirstRoundHw}) {
    std::vector<double> ref_batch;
    for (const std::size_t threads : kThreadSweep) {
      for (const simd::Backend b : available_backends()) {
        par::set_thread_count(threads);
        simd::set_backend(b);
        const auto batch = cpa_signature(c, model, 64);
        if (ref_batch.empty()) {
          ref_batch = batch;
          continue;
        }
        expect_bits_equal(ref_batch, batch, "batched report");
      }
    }
    // Quantized traces additionally make batched == oracle exactly.
    expect_bits_equal(oracle_signature(c, model), ref_batch,
                      "oracle vs batched");
  }
}

TEST(SimdGolden, CpaBatchedMergesAssociativelyAcrossTileSizes) {
  // Tile boundaries are merge points for the class-sum accumulators; the
  // report must not depend on where they fall, under either backend.
  ThreadCountGuard tguard;
  BackendGuard bguard;
  const Campaign c = make_campaign(130, 64, 0xbeef);
  for (const simd::Backend b : available_backends()) {
    par::set_thread_count(8);
    simd::set_backend(b);
    std::vector<double> ref;
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{500}}) {
      const auto sig =
          cpa_signature(c, aes::LeakageModel::kLastRoundHd, batch);
      if (ref.empty()) {
        ref = sig;
        continue;
      }
      expect_bits_equal(ref, sig, "batch-size sweep");
    }
  }
}

std::vector<double> welch_signature(const Campaign& c, std::size_t grain) {
  const std::size_t samples = c.traces[0].size();
  WelchTTest tt(samples);
  for (std::size_t i = 0; i < c.traces.size(); ++i) {
    // Alternate classes; shard the sample range at the given grain like the
    // parallel TVLA path does (per-sample update order is unaffected).
    for (std::size_t s0 = 0; s0 < samples; s0 += grain) {
      const std::size_t s1 = std::min(samples, s0 + grain);
      if (i % 2 == 0)
        tt.add_fixed_range(c.traces[i], s0, s1);
      else
        tt.add_random_range(c.traces[i], s0, s1);
    }
  }
  std::vector<double> sig = tt.t_values();
  sig.push_back(scan_t(sig, 4.5).max_abs_t);
  sig.push_back(static_cast<double>(tt.fixed_count()));
  sig.push_back(static_cast<double>(tt.random_count()));
  return sig;
}

TEST(SimdGolden, WelchTBitIdenticalAcrossBackendsAndShardings) {
  ThreadCountGuard tguard;
  BackendGuard bguard;
  const Campaign c = make_campaign(200, 96, 0xdead);
  std::vector<double> ref;
  for (const std::size_t threads : kThreadSweep) {
    for (const simd::Backend b : available_backends()) {
      for (const std::size_t grain :
           {std::size_t{5}, std::size_t{32}, std::size_t{96}}) {
        par::set_thread_count(threads);
        simd::set_backend(b);
        const auto sig = welch_signature(c, grain);
        if (ref.empty()) {
          ref = sig;
          continue;
        }
        expect_bits_equal(ref, sig, "welch signature");
      }
    }
  }
}

TEST(SimdGolden, WelchTMatchesScalarSumsReference) {
  // The SoA WelchTTest must reproduce a naive scalar raw-sums accumulation
  // exactly, on every backend — the accumulate_sums kernels may not reorder
  // per-lane additions.
  BackendGuard guard;
  const Campaign c = make_campaign(64, 40, 0xfeed);
  for (const simd::Backend b : available_backends()) {
    simd::set_backend(b);
    WelchTTest tt(40);
    std::vector<double> fn(40, 0.0), fs(40, 0.0), fs2(40, 0.0);
    std::vector<double> rn(40, 0.0), rs(40, 0.0), rs2(40, 0.0);
    for (std::size_t i = 0; i < c.traces.size(); ++i) {
      std::vector<double> d(c.traces[i].begin(), c.traces[i].end());
      auto* n = i % 2 == 0 ? &fn : &rn;
      auto* s1 = i % 2 == 0 ? &fs : &rs;
      auto* s2 = i % 2 == 0 ? &fs2 : &rs2;
      if (i % 2 == 0)
        tt.add_fixed(d);
      else
        tt.add_random(d);
      for (std::size_t s = 0; s < d.size(); ++s) {
        (*n)[s] += 1.0;
        (*s1)[s] += d[s];
        (*s2)[s] += d[s] * d[s];
      }
    }
    const std::vector<double> got = tt.t_values();
    for (std::size_t s = 0; s < got.size(); ++s) {
      const double want =
          welch_t_from_sums(fn[s], fs[s], fs2[s], rn[s], rs[s], rs2[s]);
      EXPECT_EQ(std::memcmp(&got[s], &want, sizeof(double)), 0) << "s=" << s;
    }
  }
}

TEST(SimdGolden, LeakageRowsMatchScalarHypotheses) {
  BackendGuard guard;
  Xoshiro256StarStar rng(21);
  for (const simd::Backend b : available_backends()) {
    simd::set_backend(b);
    for (int iter = 0; iter < 16; ++iter) {
      aes::Block blk{};
      for (auto& x : blk) x = static_cast<std::uint8_t>(rng.uniform(256));
      const int pos = static_cast<int>(rng.uniform(16));
      const auto last = aes::last_round_hypothesis_row(blk, pos);
      const auto first = aes::first_round_hypothesis_row(blk, pos);
      for (int g = 0; g < 256; ++g) {
        EXPECT_EQ(last[static_cast<std::size_t>(g)],
                  aes::last_round_hd_hypothesis(
                      blk, pos, static_cast<std::uint8_t>(g)));
        EXPECT_EQ(first[static_cast<std::size_t>(g)],
                  aes::first_round_hw_hypothesis(
                      blk, pos, static_cast<std::uint8_t>(g)));
      }
    }
  }
}

}  // namespace
}  // namespace rftc
