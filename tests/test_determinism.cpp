// Determinism guarantees of the parallel pipeline (docs/PERFORMANCE.md):
// with a fixed seed, captures and analyses are bit-identical for any
// RFTC_THREADS and any CPA batch size, and on raw quantized traces the
// batched CPA engine agrees bit-for-bit with the streaming reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/cpa.hpp"
#include "analysis/tvla.hpp"
#include "rftc/device.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rftc {
namespace {

constexpr std::size_t kThreadSweep[] = {1, 2, 8};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(par::thread_count()) {}
  ~ThreadCountGuard() { par::set_thread_count(saved_); }

 private:
  std::size_t saved_;
};

aes::Key test_key() {
  aes::Key k{};
  for (int i = 0; i < 16; ++i) k[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(0x2B + 7 * i);
  return k;
}

/// Pure shard factory over the unprotected fixed-clock device (fast, and
/// its traces are exactly ADC-quantized like every simulator output).
trace::CaptureShardFactory test_factory() {
  const aes::Key key = test_key();
  return [key](std::size_t shard) {
    auto dev = std::make_shared<core::ScheduledAesDevice>(
        key, std::make_unique<sched::FixedClockScheduler>(48.0));
    trace::PowerModelParams pm;
    return trace::CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        trace::TraceSimulator(pm, 0x1234 + shard)};
  };
}

void expect_identical(const trace::TraceSet& a, const trace::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.samples(), b.samples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.plaintext(i), b.plaintext(i)) << "trace " << i;
    EXPECT_EQ(a.ciphertext(i), b.ciphertext(i)) << "trace " << i;
    ASSERT_EQ(std::memcmp(a.trace(i).data(), b.trace(i).data(),
                          a.samples() * sizeof(float)),
              0)
        << "trace " << i;
  }
}

TEST(Determinism, ParallelAcquisitionIsThreadCountInvariant) {
  ThreadCountGuard guard;
  std::unique_ptr<trace::TraceSet> reference;
  for (const std::size_t threads : kThreadSweep) {
    par::set_thread_count(threads);
    trace::TraceSet set = trace::acquire_random_parallel(
        test_factory(), 250, /*seed=*/77, /*shard_size=*/64);
    ASSERT_EQ(set.size(), 250u);
    if (!reference) {
      reference = std::make_unique<trace::TraceSet>(std::move(set));
      continue;
    }
    expect_identical(*reference, set);
  }
}

TEST(Determinism, ParallelTvlaCaptureIsThreadCountInvariant) {
  ThreadCountGuard guard;
  aes::Block fixed{};
  for (std::size_t i = 0; i < 16; ++i) fixed[i] = static_cast<std::uint8_t>(i);
  std::unique_ptr<trace::TvlaCapture> reference;
  for (const std::size_t threads : kThreadSweep) {
    par::set_thread_count(threads);
    trace::TvlaCapture cap = trace::acquire_tvla_parallel(
        test_factory(), 120, fixed, /*seed=*/99, /*shard_size=*/32);
    ASSERT_EQ(cap.fixed.size(), 120u);
    ASSERT_EQ(cap.random.size(), 120u);
    if (!reference) {
      reference = std::make_unique<trace::TvlaCapture>(std::move(cap));
      continue;
    }
    expect_identical(reference->fixed, cap.fixed);
    expect_identical(reference->random, cap.random);
  }
}

TEST(Determinism, TvlaTCurveIsThreadCountInvariant) {
  ThreadCountGuard guard;
  aes::Block fixed{};
  fixed[0] = 0x42;
  const trace::TvlaCapture cap = trace::acquire_tvla_parallel(
      test_factory(), 150, fixed, /*seed=*/5, /*shard_size=*/64);
  std::vector<double> reference;
  for (const std::size_t threads : kThreadSweep) {
    par::set_thread_count(threads);
    const analysis::TvlaResult res = analysis::run_tvla(cap);
    ASSERT_EQ(res.t_values.size(), cap.fixed.samples());
    if (reference.empty()) {
      reference = res.t_values;
      continue;
    }
    ASSERT_EQ(std::memcmp(reference.data(), res.t_values.data(),
                          reference.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

void expect_identical_reports(
    const std::vector<analysis::CpaEngine::ByteReport>& a,
    const std::vector<analysis::CpaEngine::ByteReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].byte_pos, b[i].byte_pos);
    ASSERT_EQ(std::memcmp(a[i].peak_abs_corr.data(), b[i].peak_abs_corr.data(),
                          sizeof a[i].peak_abs_corr),
              0)
        << "byte report " << i;
  }
}

/// Batched engine fed every trace of `set`, each sample multiplied by
/// `scale(i)` for trace i.
analysis::CpaEngine batched_engine(const trace::TraceSet& set,
                                   aes::LeakageModel model, std::size_t batch,
                                   float (*scale)(std::size_t)) {
  analysis::CpaEngine engine(set.samples(), {0, 7, 15}, model,
                             analysis::CpaMode::kBatched);
  engine.set_batch_size(batch);
  std::vector<float> tr(set.samples());
  for (std::size_t i = 0; i < set.size(); ++i) {
    const std::span<const float> raw = set.trace(i);
    for (std::size_t s = 0; s < tr.size(); ++s) tr[s] = raw[s] * scale(i);
    engine.add(set.plaintext(i), set.ciphertext(i), tr);
  }
  return engine;
}

float unscaled(std::size_t) { return 1.0f; }

/// A third of each trace, times 2^(i mod 48 − 24).  A plain 1/3 is not
/// enough: its floats span so few binades that their double sums stay
/// exact in any order.  The 48-binade spread makes every class sum round,
/// so any change of per-element addition order changes the bits.
float spread_third(std::size_t i) {
  return std::ldexp(1.0f / 3, static_cast<int>(i % 48) - 24);
}

TEST(Determinism, BatchedCpaInvariantToThreadsAndBatch) {
  ThreadCountGuard guard;
  // 2,048 traces: a 1,024-trace tile holds ≈4 traces per class, so the
  // flush's class sort matters; n + 5 puts every trace in one tile.
  const trace::TraceSet set = trace::acquire_random_parallel(
      test_factory(), 2'048, /*seed=*/13, /*shard_size=*/64);
  const std::size_t batches[] = {1, 7, 64, 1'024, set.size() + 5};
  for (const auto model : {aes::LeakageModel::kLastRoundHd,
                           aes::LeakageModel::kFirstRoundHw}) {
    for (const auto scale : {&unscaled, &spread_third}) {
      std::vector<unsigned char> reference_blob;
      std::vector<analysis::CpaEngine::ByteReport> reference;
      for (const std::size_t threads : kThreadSweep) {
        par::set_thread_count(threads);
        for (const std::size_t batch : batches) {
          const analysis::CpaEngine engine =
              batched_engine(set, model, batch, scale);
          const std::vector<unsigned char> blob = engine.serialize();
          const auto reports = engine.report();
          if (reference.empty()) {
            reference_blob = blob;
            reference = reports;
            continue;
          }
          SCOPED_TRACE(std::string(model == aes::LeakageModel::kLastRoundHd
                                       ? "last-round"
                                       : "first-round") +
                       (scale == &unscaled ? " quantized" : " spread") +
                       " threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch));
          ASSERT_EQ(blob, reference_blob) << "accumulator sums differ";
          expect_identical_reports(reference, reports);
        }
      }
    }
  }
}

/// Golden cross-engine check: on raw simulator traces (exact multiples of
/// the ADC quantum) the class-sum/WHT engine must reproduce the streaming
/// reference bit-for-bit, under both leakage models.
TEST(Determinism, BatchedCpaMatchesStreamingOnQuantizedTraces) {
  ThreadCountGuard guard;
  par::set_thread_count(2);
  // Two full default tiles and a partial one.
  const trace::TraceSet set = trace::acquire_random_parallel(
      test_factory(), 2'100, /*seed=*/21, /*shard_size=*/64);
  for (const auto model : {aes::LeakageModel::kLastRoundHd,
                           aes::LeakageModel::kFirstRoundHw}) {
    analysis::CpaEngine streaming(set.samples(), {0, 7, 15}, model,
                                  analysis::CpaMode::kStreaming);
    for (std::size_t i = 0; i < set.size(); ++i)
      streaming.add(set.plaintext(i), set.ciphertext(i), set.trace(i));
    SCOPED_TRACE(model == aes::LeakageModel::kLastRoundHd ? "last-round"
                                                          : "first-round");
    expect_identical_reports(
        streaming.report(),
        batched_engine(set, model, env::kCpaBatchDefault, &unscaled)
            .report());
  }
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct CpaDigests {
  std::uint64_t blob = 0;
  std::uint64_t report = 0;
};

/// Batched engine over `n` synthetic traces that need no simulator: random
/// blocks and ADC-like integer codes from one Xoshiro stream, each trace
/// scaled by spread_third(i) so its class sums round.  Returns the digests
/// of its serialize() blob and of its report() bits.
CpaDigests pinned_engine_digests(std::size_t samples, std::vector<int> bytes,
                                 aes::LeakageModel model, std::size_t n) {
  analysis::CpaEngine engine(samples, std::move(bytes), model,
                             analysis::CpaMode::kBatched);
  Xoshiro256StarStar rng(0x5EED0020);
  std::vector<float> tr(samples);
  for (std::size_t i = 0; i < n; ++i) {
    aes::Block pt{}, ct{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
    for (float& v : tr)
      v = static_cast<float>(static_cast<int>(rng.uniform(257)) - 128) *
          (400.0f / 256.0f) * spread_third(i);
    engine.add(pt, ct, tr);
  }
  const std::vector<unsigned char> blob = engine.serialize();
  CpaDigests d;
  d.blob = fnv1a(blob.data(), blob.size());
  d.report = 0xcbf29ce484222325ULL;
  for (const auto& r : engine.report()) {
    d.report = fnv1a(&r.byte_pos, sizeof r.byte_pos, d.report);
    d.report = fnv1a(r.peak_abs_corr.data(), sizeof r.peak_abs_corr, d.report);
  }
  return d;
}

/// The batched engine's bits, pinned to digests recorded before the
/// hypothesis sums moved into the flush and the report moved to 128-sample
/// WHT panels.  The invariance tests above compare batched runs against
/// each other inside one build, so a change that is consistent across
/// threads and tiles but alters the arithmetic would pass them; this one
/// fails it.  S = 500 spans report panels of 128/128/128/116 samples, one
/// byte at S = 125 eight narrowed ones (7 × 16 + 13), S = 3 a single
/// narrow one.
TEST(Determinism, BatchedCpaBitsMatchPinnedDigests) {
  ThreadCountGuard guard;
  struct Case {
    const char* name;
    std::size_t samples;
    std::vector<int> bytes;
    aes::LeakageModel model;
    std::size_t traces;
    CpaDigests want;
  };
  const Case cases[] = {
      {"S=500 last-round", 500, {0, 7, 15}, aes::LeakageModel::kLastRoundHd,
       1'500, {0x18deccdaaa395714ULL, 0xd0a3e3bf1616a08ULL}},
      {"S=500 first-round", 500, {0, 7, 15}, aes::LeakageModel::kFirstRoundHw,
       1'500, {0x650a4d9b0495b5b7ULL, 0x3e20566fc1f1e4daULL}},
      {"S=125 one byte", 125, {5}, aes::LeakageModel::kLastRoundHd, 800,
       {0xf580826a6fb38d87ULL, 0xb5bad895d8c29af1ULL}},
      {"S=3 last-round", 3, {1, 5, 10, 14}, aes::LeakageModel::kLastRoundHd,
       700, {0xe0ca51b2a3215d2dULL, 0x33a377999874e41ULL}},
      {"S=3 first-round", 3, {1, 5, 10, 14}, aes::LeakageModel::kFirstRoundHw,
       700, {0x4a3c6df6b44907f5ULL, 0x989c2e597bca9702ULL}},
  };
  for (const std::size_t threads : kThreadSweep) {
    par::set_thread_count(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) +
                   " threads=" + std::to_string(threads));
      const CpaDigests got =
          pinned_engine_digests(c.samples, c.bytes, c.model, c.traces);
      EXPECT_EQ(got.blob, c.want.blob) << std::hex << "blob 0x" << got.blob;
      EXPECT_EQ(got.report, c.want.report)
          << std::hex << "report 0x" << got.report;
    }
  }
}

}  // namespace
}  // namespace rftc
