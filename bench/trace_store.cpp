// Trace-store kernel microbench: sequential write, mapped sequential read
// and CRC verify bandwidth of the chunked .rtst store (src/trace/
// trace_store.hpp) on a synthetic corpus.  Emits BENCH_trace_store.json for
// the CI bench-regression diff: bandwidths are timing-class (ratio-gated),
// the chunk geometry is count-class (exact).
//
// RFTC_STORE_BENCH_TRACES overrides the corpus size (default 20,000 traces
// of 500 samples — ~40 MiB, large enough to dwarf per-chunk overheads and
// small enough for any CI runner).
//
// Doubling as the heartbeat overhead gate: the bench times a burst of
// forced sampler ticks and reports heartbeat.tick_ms plus
// heartbeat.overhead_pct (tick cost as a percentage of the default 1 s
// interval).  It self-gates at 1% — the ISSUE's budget for live telemetry
// — and CI additionally diffs the metric against the committed baseline.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/phase_timer.hpp"
#include "obs/sampler.hpp"
#include "trace/trace_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace rftc;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  obs::RunManifest report("trace_store");
  const std::size_t samples = 500;
  std::size_t n = 20'000;
  if (const char* env = std::getenv("RFTC_STORE_BENCH_TRACES")) {
    const long v = std::atol(env);
    if (v > 0) n = static_cast<std::size_t>(v);
  }
  report.seed(4242);
  bench::print_header("trace_store — chunked store bandwidth, " +
                      std::to_string(n) + " traces x " +
                      std::to_string(samples) + " samples");

  const std::string path =
      (std::filesystem::temp_directory_path() / "rftc_bench_store.rtst")
          .string();
  std::filesystem::remove(path);

  // Synthetic corpus: RNG floats, not simulated traces — this bench times
  // the store, not the device model.
  Xoshiro256StarStar rng(4242);
  std::vector<float> tr(samples);
  aes::Block pt{}, ct{};

  auto t0 = std::chrono::steady_clock::now();
  {
    obs::PhaseScope io(obs::kPhaseStoreIo);
    trace::TraceStoreWriter writer(path, samples);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : tr) v = static_cast<float>(rng.uniform01());
      pt[0] = static_cast<std::uint8_t>(i);
      writer.add(tr, pt, ct);
    }
    writer.finalize();
  }
  const double write_s = seconds_since(t0);

  trace::TraceStore store(path);
  const double mib =
      static_cast<double>(store.file_bytes()) / (1024.0 * 1024.0);

  // Mapped sequential read: touch every float through the chunk windows.
  t0 = std::chrono::steady_clock::now();
  double checksum = 0.0;
  {
  obs::PhaseScope io(obs::kPhaseStoreIo);
  for (std::size_t c = 0; c < store.chunk_count(); ++c) {
    const trace::TraceChunk chunk = store.chunk(c);
    for (std::size_t k = 0; k < chunk.count(); ++k)
      for (const float v : chunk.trace(k)) checksum += v;
  }
  }
  const double read_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  trace::StoreVerifyResult v;
  {
    obs::PhaseScope io(obs::kPhaseStoreIo);
    v = store.verify();
  }
  const double verify_s = seconds_since(t0);

  std::printf("corpus    %8.1f MiB (%zu chunks of %zu traces)\n", mib,
              store.chunk_count(), store.chunk_traces());
  std::printf("write     %8.1f MiB/s\n", mib / write_s);
  std::printf("read      %8.1f MiB/s (checksum %.3e)\n", mib / read_s,
              checksum);
  std::printf("verify    %8.1f MiB/s (%s)\n", mib / verify_s,
              v.ok ? "OK" : v.error.c_str());

  report.metric("corpus_mib", mib, "MiB");
  report.metric("chunks", static_cast<double>(store.chunk_count()), "count");
  report.metric("write_bw", mib / write_s, "MiB/s");
  report.metric("read_bw", mib / read_s, "MiB/s");
  report.metric("verify_bw", mib / verify_s, "MiB/s");
  report.metric("verify_ok", v.ok ? 1.0 : 0.0, "count");
  report.throughput(static_cast<double>(n) / write_s, "traces/s");

  // Heartbeat overhead: force a burst of ticks and price one tick against
  // the default sampling interval.  Uses the already-armed sampler when
  // RFTC_OBS_HEARTBEAT is set, otherwise a scratch sink that is removed
  // after the measurement.
  obs::HeartbeatSampler& sampler = obs::HeartbeatSampler::global();
  std::string scratch_hb;
  if (!sampler.configured()) {
    scratch_hb = (std::filesystem::temp_directory_path() /
                  "rftc_bench_store_heartbeat.jsonl")
                     .string();
    std::filesystem::remove(scratch_hb);
    sampler.configure(scratch_hb);
  }
  constexpr int kTicks = 20;
  t0 = std::chrono::steady_clock::now();
  int ticked = 0;
  for (int i = 0; i < kTicks; ++i)
    if (sampler.tick_now()) ++ticked;
  const double tick_ms =
      ticked > 0 ? seconds_since(t0) * 1e3 / ticked : 0.0;
  const double interval_ms = static_cast<double>(
      std::chrono::milliseconds(obs::HeartbeatSampler::kDefaultInterval)
          .count());
  const double overhead_pct = 100.0 * tick_ms / interval_ms;
  std::printf("heartbeat %8.3f ms/tick (%.3f%% of the %.0f ms interval)\n",
              tick_ms, overhead_pct, interval_ms);
  report.metric("heartbeat.tick_ms", tick_ms, "ms");
  report.metric("heartbeat.overhead_pct", overhead_pct, "%");
  const bool hb_ok = ticked == kTicks && overhead_pct <= 1.0;
  if (!hb_ok)
    std::fprintf(stderr,
                 "trace_store: heartbeat overhead gate FAILED "
                 "(%d/%d ticks, %.3f%% > 1%%)\n",
                 ticked, kTicks, overhead_pct);
  if (!scratch_hb.empty()) std::filesystem::remove(scratch_hb);

  report.write();
  std::filesystem::remove(path);
  return v.ok && hb_ok ? 0 : 1;
}
