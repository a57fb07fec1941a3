// Kernel microbenchmarks (google-benchmark): the hot paths of the
// simulation and attack pipeline.  Results go to the console as usual and
// to BENCH_microbench.json for machine consumption (see
// docs/OBSERVABILITY.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aes/leakage.hpp"
#include "aes/round_engine.hpp"
#include "analysis/cpa.hpp"
#include "analysis/dtw.hpp"
#include "analysis/fft.hpp"
#include "clocking/drp_codec.hpp"
#include "common.hpp"
#include "cpa_oracle.hpp"
#include "simd/simd.hpp"
#include "rftc/frequency_planner.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/acquisition.hpp"
#include "util/crc32.hpp"
#include "util/parallel.hpp"

namespace {

using namespace rftc;

void BM_AesEncrypt(benchmark::State& state) {
  const aes::Key key = bench::evaluation_key();
  aes::Block pt{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::encrypt(pt, key));
    ++pt[0];
  }
}
BENCHMARK(BM_AesEncrypt);

void BM_RoundEngine(benchmark::State& state) {
  aes::RoundEngine engine(bench::evaluation_key());
  aes::Block pt{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.encrypt(pt));
    ++pt[1];
  }
}
BENCHMARK(BM_RoundEngine);

void BM_HypothesisRow(benchmark::State& state) {
  aes::Block ct{};
  for (int i = 0; i < 16; ++i) ct[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(11 * i + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::last_round_hypothesis_row(ct, 5));
    ++ct[5];
  }
}
BENCHMARK(BM_HypothesisRow);

void BM_TraceSimulate(benchmark::State& state) {
  core::ScheduledAesDevice dev(
      bench::evaluation_key(),
      std::make_unique<sched::FixedClockScheduler>(48.0));
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, 1);
  aes::Block pt{};
  for (auto _ : state) {
    const auto rec = dev.encrypt(pt);
    benchmark::DoNotOptimize(sim.simulate(rec.schedule, rec.activity));
    ++pt[2];
  }
}
BENCHMARK(BM_TraceSimulate);

/// The scalar CPA oracle's per-trace update (tests/cpa_oracle.hpp): the
/// textbook cost the class-sum engine below is measured against.
void BM_CpaAdd(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  analysis::CpaOracle engine(samples, {0, 5, 10, 15});
  std::vector<float> tr(samples, 1.0f);
  aes::Block ct{};
  for (auto _ : state) {
    engine.add(ct, tr);
    ++ct[0];
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpaAdd)->Arg(64)->Arg(125)->Arg(250);

void BM_CpaAddBatched(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  analysis::CpaEngine engine(samples, {0, 5, 10, 15});
  std::vector<float> tr(samples, 1.0f);
  aes::Block ct{};
  for (auto _ : state) {
    engine.add(ct, tr);
    ++ct[0];
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpaAddBatched)->Arg(64)->Arg(125)->Arg(250);

/// The cpa-reattack geometry: all 16 bytes, random ciphertexts (so classes
/// land in random order across a tile) and random traces.
void BM_CpaAddBatched16(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  std::vector<int> bytes(16);
  for (int b = 0; b < 16; ++b) bytes[static_cast<std::size_t>(b)] = b;
  analysis::CpaEngine engine(samples, bytes);
  constexpr std::size_t kPool = 4'096;
  Xoshiro256StarStar rng(5);
  std::vector<aes::Block> cts(kPool);
  for (auto& ct : cts)
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
  std::vector<float> traces(kPool * samples);
  for (auto& v : traces) v = static_cast<float>(rng.gaussian());
  std::size_t i = 0;
  for (auto _ : state) {
    engine.add(cts[i], std::span<const float>(traces.data() + i * samples,
                                              samples));
    i = (i + 1) % kPool;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpaAddBatched16)->Arg(125);

/// Feeds `n` random traces so a report pass sees realistic sums.
template <class Engine>
Engine filled_engine(std::size_t samples, std::size_t n,
                     std::vector<int> bytes = {0, 5, 10, 15}) {
  Engine engine(samples, std::move(bytes));
  Xoshiro256StarStar rng(11);
  std::vector<float> tr(samples);
  aes::Block ct{};
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : tr) v = static_cast<float>(rng.gaussian());
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
    engine.add(ct, tr);
  }
  return engine;
}

/// The scalar oracle's report: one correlation sweep per guess.
void BM_CpaReportStreaming(benchmark::State& state) {
  const auto engine = filled_engine<analysis::CpaOracle>(
      static_cast<std::size_t>(state.range(0)), 2'048);
  for (auto _ : state) benchmark::DoNotOptimize(engine.report());
}
BENCHMARK(BM_CpaReportStreaming)->Arg(250)->Unit(benchmark::kMillisecond);

void BM_CpaReportBatched(benchmark::State& state) {
  const auto engine = filled_engine<analysis::CpaEngine>(
      static_cast<std::size_t>(state.range(0)), 2'048);
  for (auto _ : state) benchmark::DoNotOptimize(engine.report());
}
BENCHMARK(BM_CpaReportBatched)->Arg(250)->Unit(benchmark::kMillisecond);

/// A cpa-reattack checkpoint: all 16 bytes over 2,048 random traces.
void BM_CpaReportBatched16(benchmark::State& state) {
  std::vector<int> bytes(16);
  for (int b = 0; b < 16; ++b) bytes[static_cast<std::size_t>(b)] = b;
  const auto engine = filled_engine<analysis::CpaEngine>(
      static_cast<std::size_t>(state.range(0)), 2'048, std::move(bytes));
  for (auto _ : state) benchmark::DoNotOptimize(engine.report());
}
BENCHMARK(BM_CpaReportBatched16)->Arg(125)->Unit(benchmark::kMillisecond);

/// One report panel: the 256-point WHT down `width` sample columns.
void BM_Wht256(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  // Zeros stay zeros under the transform; random values would grow 16x per
  // pass until they overflow.  Adds and subtracts take the same time on
  // either, and neither produces denormals.
  std::vector<double> panel(256 * width, 0.0);
  for (auto _ : state) {
    simd::wht256(panel.data(), width);
    benchmark::DoNotOptimize(panel.data());
  }
}
BENCHMARK(BM_Wht256)->Arg(128);

void BM_ParallelFor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> v(n, 1.0);
  for (auto _ : state) {
    par::parallel_for(0, n, 1'024, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) v[i] = v[i] * 1.0000001 + 0.5;
    });
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelFor)->Arg(1 << 12)->Arg(1 << 16);

void BM_DtwAlign(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(3);
  std::vector<double> ref(n);
  std::vector<float> tr(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref[i] = rng.gaussian();
    tr[i] = static_cast<float>(rng.gaussian());
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::dtw_align(ref, tr, {.band = 16}));
}
BENCHMARK(BM_DtwAlign)->Arg(125)->Arg(250);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(5);
  std::vector<float> sig(n);
  for (auto& v : sig) v = static_cast<float>(rng.gaussian());
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::magnitude_spectrum(sig));
}
BENCHMARK(BM_Fft)->Arg(128)->Arg(512);

void BM_DrpEncode(benchmark::State& state) {
  clk::MmcmConfig cfg;
  cfg.fin_mhz = 24.0;
  cfg.mult_8ths = 40 * 8;
  cfg.divclk = 1;
  cfg.out_div_8ths = {20 * 8, 24 * 8, 30 * 8, 8, 8, 8, 8};
  for (auto _ : state) benchmark::DoNotOptimize(clk::encode_config(cfg));
}
BENCHMARK(BM_DrpEncode);

void BM_EnumerateCompletionTimes(benchmark::State& state) {
  const std::vector<Picoseconds> periods = {20'833, 30'000, 41'667};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::enumerate_completion_times(periods, 10));
}
BENCHMARK(BM_EnumerateCompletionTimes);

void BM_PlanFrequencies(benchmark::State& state) {
  for (auto _ : state) {
    core::PlannerParams pp;
    pp.m_outputs = 3;
    pp.p_configs = static_cast<int>(state.range(0));
    pp.seed = 1;
    benchmark::DoNotOptimize(core::plan_frequencies(pp));
  }
}
BENCHMARK(BM_PlanFrequencies)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

/// `n` random bytes for the CRC-32 benches (the kernels are data-oblivious;
/// random contents just keep the compiler honest).
std::vector<std::uint8_t> crc_buffer(std::size_t n) {
  std::vector<std::uint8_t> buf(n);
  Xoshiro256StarStar rng(0xC4C);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(buf.data() + i, &word, std::min<std::size_t>(8, n - i));
  }
  return buf;
}

/// CRC-32 on the active backend of a small blob (4 KiB), a store-chunk-
/// scale buffer (1 MiB) and a dist-snapshot-scale one (32 MiB).
void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint8_t> buf = crc_buffer(n);
  for (auto _ : state) benchmark::DoNotOptimize(util::crc32(buf.data(), n));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20)->Arg(32 << 20);

/// Self-gating CRC-32 benchmark: times the active backend against the
/// scalar byte table on one 8 MiB buffer (best of 5 each) and fails the
/// bench if the two CRCs differ or, with the AVX2 backend active, if the
/// PCLMULQDQ fold is less than 4x faster.
bool run_crc32_speedup_gate(obs::RunManifest& report) {
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  constexpr int kRepeats = 5;
  const std::vector<std::uint8_t> buf = crc_buffer(kBytes);
  const simd::Backend active = simd::backend();
  auto best_of = [&](simd::Backend b, std::uint32_t* crc) {
    simd::set_backend(b);
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      *crc = util::crc32(buf.data(), kBytes);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  std::uint32_t crc_scalar = 0;
  std::uint32_t crc_active = 0;
  const double scalar = best_of(simd::Backend::kScalar, &crc_scalar);
  const double fast = best_of(active, &crc_active);
  simd::set_backend(active);
  const double speedup = scalar / fast;
  report.metric("crc32_speedup_vs_scalar", speedup, "x");
  const double mib = static_cast<double>(kBytes) / (1 << 20);
  std::printf(
      "CRC-32 (%.0f MiB): scalar %.0f MiB/s, %s %.0f MiB/s, speedup %.1fx\n",
      mib, mib / scalar, simd::backend_name(), mib / fast, speedup);
  if (crc_active != crc_scalar) {
    std::fprintf(stderr, "FAIL: %s CRC-32 %08x != scalar %08x\n",
                 simd::backend_name(), crc_active, crc_scalar);
    return false;
  }
  if (active == simd::Backend::kAvx2 && speedup < 4.0) {
    std::fprintf(stderr,
                 "FAIL: CRC-32 speedup %.2fx below the 4x gate\n", speedup);
    return false;
  }
  return true;
}

/// Console output plus per-benchmark metrics captured into the bench
/// report.  BM_TraceSimulate doubles as the headline throughput: one
/// iteration is one full encrypt + trace synthesis, i.e. one trace.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  // Tabular but uncolored: the default OO_Color writes ANSI escapes even
  // into pipes, which breaks downstream grep/CI log parsing.
  explicit CaptureReporter(obs::RunManifest& report)
      : ConsoleReporter(OO_Tabular), report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      report_.metric(name, run.GetAdjustedRealTime(),
                     benchmark::GetTimeUnitString(run.time_unit));
      if (name == "BM_TraceSimulate" && run.iterations > 0) {
        report_.throughput(static_cast<double>(run.iterations) /
                               run.real_accumulated_time,
                           "traces/s");
      }
    }
  }

 private:
  obs::RunManifest& report_;
};

}  // namespace

int main(int argc, char** argv) {
  rftc::obs::RunManifest report("microbench");
  report.seed(1);  // fixtures use small fixed per-benchmark seeds
  report.note("simd_isa", rftc::simd::backend_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const bool crc_ok = run_crc32_speedup_gate(report);
  report.write();
  return crc_ok ? 0 : 1;
}
