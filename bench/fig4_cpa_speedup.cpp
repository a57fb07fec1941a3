// CPA engine speedup: the fig4-style CPA attack (last-round HD, checkpoint
// schedule of the scale profile) timed with the scalar CPA oracle
// (tests/cpa_oracle.hpp, the textbook per-trace accumulator) on one thread
// versus the class-sum/WHT CpaEngine, once on one thread and once with the
// configured RFTC_THREADS.  All runs attack the SAME captured campaign, and
// because raw ADC traces are exactly quantized the engine must agree with
// the oracle bit-for-bit on every checkpoint — the bench fails (exit 1) if
// it doesn't.
//
// BENCH_fig4_cpa_speedup.json records serial_seconds, batched_seconds (at
// RFTC_THREADS = N), batched_seconds_1t, speedup_vs_serial (the acceptance
// gate: the bench exits 1 below 4x) and scaling_efficiency
// = batched_seconds_1t / (N · batched_seconds), which is reported, not
// gated.
//
// Out-of-core mode: with RFTC_STORE_DIR set, the same campaign is also
// streamed into a chunked .rtst store and attacked through the store-backed
// run_attack overload — the outcome must match the in-RAM batched run
// bit-for-bit (exit 1 otherwise), pinning the streamed fig. 4 path at bench
// scale.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "cpa_oracle.hpp"
#include "simd/simd.hpp"
#include "trace/trace_store.hpp"
#include "util/parallel.hpp"

namespace {

/// Acceptance gate on speedup_vs_serial.
constexpr double kMinSpeedup = 4.0;

/// Runs `attack` into `out` and returns its wall time in seconds.
template <class Attack>
double time_attack(Attack&& attack, rftc::analysis::AttackOutcome& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = attack();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool same_outcome(const rftc::analysis::AttackOutcome& a,
                  const rftc::analysis::AttackOutcome& b) {
  return a.checkpoints == b.checkpoints && a.success == b.success &&
         a.mean_rank == b.mean_rank && a.peak_corr == b.peak_corr;
}

}  // namespace

int main() {
  using namespace rftc;
  obs::RunManifest report("fig4_cpa_speedup");
  const bench::ScaleProfile profile = bench::scale_profile();
  report.note("profile", profile.name);
  report.note("simd_isa", simd::backend_name());
  report.seed(0x5EED0000);  // rftc_factory campaign seed base
  bench::print_header("CPA engine speedup — scalar oracle (1 thread) vs "
                      "batched (RFTC_THREADS), profile " +
                      profile.name);

  // One campaign, reused by both engines.  RFTC(1, 4) is the weakest
  // fig. 4 configuration, so the checkpoint ranks are also a meaningful
  // cross-check, but the timing is representative of any P.
  const trace::TraceSet set =
      bench::rftc_factory(1, 4)(/*repeat=*/0, profile.sr_max_traces);
  std::printf("campaign: %zu traces x %zu samples\n", set.size(),
              set.samples());

  analysis::AttackParams params;
  params.kind = analysis::AttackKind::kCpa;
  params.byte_positions = profile.attack_bytes;
  params.checkpoints = profile.sr_checkpoints;
  const aes::Block rk10 = bench::evaluation_round10_key();

  // Serial baseline: the scalar oracle, which never uses the pool.
  const std::size_t configured_threads = par::thread_count();
  par::set_thread_count(1);
  analysis::AttackOutcome serial_out;
  const double serial_s = time_attack(
      [&] { return analysis::oracle_attack(set, rk10, params); }, serial_out);
  std::printf("oracle, 1 thread:         %8.2f s\n", serial_s);

  // Batched engine on one thread, then with the configured thread count.
  const auto batched = [&] { return analysis::run_attack(set, rk10, params); };
  analysis::AttackOutcome batched_1t_out;
  const double batched_1t_s = time_attack(batched, batched_1t_out);
  std::printf("batched, 1 thread:        %8.2f s\n", batched_1t_s);
  par::set_thread_count(configured_threads);
  analysis::AttackOutcome batched_out;
  const double batched_s = time_attack(batched, batched_out);
  std::printf("batched, %zu thread(s):    %8.2f s\n", configured_threads,
              batched_s);

  const bool match = same_outcome(serial_out, batched_out) &&
                     same_outcome(serial_out, batched_1t_out);
  const double speedup = batched_s > 0.0 ? serial_s / batched_s : 0.0;
  const double efficiency =
      batched_s > 0.0
          ? batched_1t_s /
                (static_cast<double>(configured_threads) * batched_s)
          : 0.0;
  std::printf("speedup_vs_serial:        %8.2fx   outcomes %s\n", speedup,
              match ? "bit-identical" : "MISMATCH");
  std::printf("scaling_efficiency:       %8.2f    (%zu threads)\n",
              efficiency, configured_threads);

  // Out-of-core cross-check: re-acquire the identical campaign into a
  // chunked store (same shard factory, same seed) and attack it through
  // the streamed path.
  bool ooc_match = true;
  if (const char* env = std::getenv("RFTC_STORE_DIR")) {
    std::filesystem::create_directories(env);
    const std::string path = std::string(env) + "/fig4_cpa_campaign.rtst";
    const std::uint64_t mix = bench::rftc_campaign_mix(1, 4, /*repeat=*/0);
    {
      trace::TraceStoreWriter writer(path, set.samples());
      trace::acquire_random_store(bench::rftc_shard_factory(1, 4, mix),
                                  set.size(), mix + 0xB0B0B0B0ULL, writer);
      writer.finalize();
    }
    const trace::TraceStore store(path);
    analysis::AttackOutcome ooc_out;
    const double ooc_s = time_attack(
        [&] { return analysis::run_attack(store, rk10, params); }, ooc_out);
    ooc_match = same_outcome(batched_out, ooc_out);
    std::printf("out-of-core, %zu chunks:  %8.2f s   outcomes %s\n",
                store.chunk_count(), ooc_s,
                ooc_match ? "bit-identical" : "MISMATCH");
    report.note("store", path);
    report.metric("ooc_seconds", ooc_s, "s");
    report.metric("ooc_outcomes_match", ooc_match ? 1.0 : 0.0, "bool");
  }

  report.metric("traces", static_cast<double>(set.size()), "traces");
  report.metric("serial_seconds", serial_s, "s");
  report.metric("batched_seconds", batched_s, "s");
  report.metric("batched_seconds_1t", batched_1t_s, "s");
  report.metric("speedup_vs_serial", speedup, "x");
  report.metric("scaling_efficiency", efficiency, "ratio");
  report.metric("outcomes_match", match ? 1.0 : 0.0, "bool");
  report.throughput(static_cast<double>(set.size()) / batched_s, "traces/s");
  report.write();
  if (!match) {
    std::fprintf(stderr,
                 "fig4_cpa_speedup: batched engine diverged from the "
                 "scalar oracle\n");
    return 1;
  }
  if (!ooc_match) {
    std::fprintf(stderr,
                 "fig4_cpa_speedup: out-of-core attack diverged from the "
                 "in-RAM batched run\n");
    return 1;
  }
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "fig4_cpa_speedup: speedup_vs_serial %.2fx is below the "
                 "%.0fx gate\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}
