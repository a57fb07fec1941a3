// Long-haul soak campaign: a multi-segment attack + TVLA run under fault
// injection, with the whole observability stack armed (heartbeat sampler +
// crash-safe post-mortem) and two hard gates at the end:
//
//  1. Accumulator-merge bit-identity.  Each segment streams its own .rtst
//     stores through fresh per-segment CPA / Welch-t accumulators which are
//     then merge()d into campaign accumulators; single-pass accumulators fed
//     the identical trace stream run alongside.  Any divergence between the
//     merged and single-pass results — the contract the distributed
//     campaign engine builds on (docs/TESTING.md) — fails the bench.
//
//  2. Bounded peak RSS.  Segments hold O(chunk) of the corpus and their
//     stores are deleted once folded in, so however long the soak runs the
//     kernel-reported peak RSS must stay under RFTC_SOAK_RSS_MIB.
//
// The controller runs with the DRP/MMCM fault families armed, so the whole
// campaign exercises the recovery paths continuously; the recovery tallies
// are reported as metrics.  CI-sized by default; the nightly job turns the
// knobs up.
//
// Knobs:
//   RFTC_SOAK_SEGMENTS    campaign segments (default 3)
//   RFTC_SOAK_TRACES      traces per population per segment (default 4000)
//   RFTC_SOAK_RSS_MIB     peak-RSS gate in MiB (default 512)
//   RFTC_SOAK_FAULT_RATE  per-family DRP/lock fault rate (default 0.02)
//   RFTC_STORE_DIR        where segment stores go (default: temp dir)
//
// Exit codes: 0 = completed with all gates green; 1 = store corruption,
// merge divergence, or the RSS gate failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/tvla.hpp"
#include "common.hpp"
#include "fault/fault_spec.hpp"
#include "obs/obs.hpp"
#include "obs/resource.hpp"
#include "obs/sampler.hpp"
#include "rftc/frequency_planner.hpp"
#include "trace/trace_store.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"

namespace {

using namespace rftc;

/// rftc_shard_factory with the DRP/MMCM fault families armed: same pure
/// per-shard seeding contract, plus a per-shard-salted fault stream so
/// shards draw independent fault sequences.
trace::CaptureShardFactory faulted_shard_factory(int m, int p,
                                                 std::uint64_t mix,
                                                 double fault_rate) {
  const aes::Key key = bench::evaluation_key();
  core::PlannerParams pp;
  pp.m_outputs = m;
  pp.p_configs = p;
  pp.seed = 41;
  // Planning is deterministic and expensive: do it once, share the plan.
  auto plan = std::make_shared<core::FrequencyPlan>(core::plan_frequencies(pp));
  return [key, plan, mix, fault_rate](std::size_t shard) {
    const std::uint64_t salt =
        SplitMix64(mix ^ (0x9E3779B97F4A7C15ULL * (shard + 1))).next();
    core::ControllerParams params;
    params.lfsr_seed_lo = salt | 1;
    params.lfsr_seed_hi = SplitMix64(salt).next();
    params.faults.drp_corrupt_rate = fault_rate;
    params.faults.drp_drop_rate = fault_rate;
    params.faults.lock_loss_rate = fault_rate;
    params.faults.seed = salt ^ 0xF4017ULL;
    auto dev = std::make_shared<core::RftcDevice>(key, *plan, params);
    trace::PowerModelParams pm;
    return trace::CaptureShard{
        [dev](const aes::Block& pt) { return dev->encrypt(pt); },
        trace::TraceSimulator(pm, salt ^ 0xA5A5A5A5ULL)};
  };
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool reports_equal(const std::vector<analysis::CpaEngine::ByteReport>& a,
                   const std::vector<analysis::CpaEngine::ByteReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].byte_pos != b[i].byte_pos ||
        std::memcmp(a[i].peak_abs_corr.data(), b[i].peak_abs_corr.data(),
                    sizeof(a[i].peak_abs_corr)) != 0)
      return false;
  return true;
}

}  // namespace

int main() {
  // Arm the full observability stack unless the caller configured it
  // already: the soak exists to prove long runs stay observable and leave a
  // usable post-mortem if they die.
  ::setenv("RFTC_OBS_HEARTBEAT", "soak_heartbeat.jsonl:250", 0);
  ::setenv("RFTC_OBS_POSTMORTEM", "soak_postmortem.json", 0);
  obs::init_from_env();

  const std::size_t segments = env::read_count("RFTC_SOAK_SEGMENTS", 3);
  const std::size_t n = env::read_count("RFTC_SOAK_TRACES", 4000);
  const double rss_gate_mib =
      env::read_real("RFTC_SOAK_RSS_MIB", 512.0);
  const double fault_rate = env::read_real("RFTC_SOAK_FAULT_RATE", 0.02);
  std::string dir;
  if (const char* env_dir = std::getenv("RFTC_STORE_DIR")) {
    dir = env_dir;
    std::filesystem::create_directories(dir);
  } else {
    dir = std::filesystem::temp_directory_path().string();
  }

  const std::uint64_t seed = 0x50AC'CA4D;
  obs::RunManifest report("soak_campaign");
  report.seed(seed);
  bench::print_header("Soak campaign: " + std::to_string(segments) +
                      " segments x " + std::to_string(n) +
                      " traces/population, RFTC(3, 16), faults armed");
  obs::set_campaign_total(static_cast<double>(2 * segments * n));

  const aes::Block tvla_fixed = {0xDA, 0x39, 0xA3, 0xEE, 0x5E, 0x6B,
                                 0x4B, 0x0D, 0x32, 0x55, 0xBF, 0xEF,
                                 0x95, 0x60, 0x18, 0x90};
  const std::vector<int> attack_bytes = {0, 5, 11};

  // Probe the trace geometry once (shard factories are pure, so this is
  // exactly what every segment's shard 0 will produce).
  const std::size_t samples =
      faulted_shard_factory(3, 16, seed, fault_rate)(0).sim.samples();

  // Campaign accumulators built by merge() vs single-pass twins fed the
  // same stream trace-for-trace.
  WelchTTest welch_merged(samples), welch_single(samples);
  analysis::CpaEngine cpa_merged(samples, attack_bytes);
  analysis::CpaEngine cpa_single(samples, attack_bytes);

  std::size_t traces_total = 0;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const std::string fixed_path =
        dir + "/soak_seg" + std::to_string(seg) + "_fixed.rtst";
    const std::string random_path =
        dir + "/soak_seg" + std::to_string(seg) + "_random.rtst";
    {
      trace::TraceStoreWriter fixed_w(fixed_path, samples);
      trace::TraceStoreWriter random_w(random_path, samples);
      trace::acquire_tvla_store(
          faulted_shard_factory(3, 16, seed + 101 * seg, fault_rate), n,
          tvla_fixed, seed + 7 * seg + 1, fixed_w, random_w);
      fixed_w.finalize();
      random_w.finalize();
    }

    trace::TraceStore fixed(fixed_path), random(random_path);
    for (const trace::TraceStore* s : {&fixed, &random}) {
      const trace::StoreVerifyResult v = s->verify();
      if (!v.ok) {
        std::fprintf(stderr, "soak_campaign: %s: %s\n", s->path().c_str(),
                     v.error.c_str());
        return 1;
      }
    }

    // Fresh per-segment accumulators, folded into the campaign ones after
    // the segment's stores stream through.
    WelchTTest welch_seg(samples);
    analysis::CpaEngine cpa_seg(samples, attack_bytes);
    for (WelchTTest* welch : {&welch_seg, &welch_single}) {
      analysis::accumulate_tvla_range(*welch, fixed, 0, fixed.size(), true);
      analysis::accumulate_tvla_range(*welch, random, 0, random.size(), false);
    }
    random.for_range(0, random.size(), [&](const trace::TraceChunk& chunk,
                                           std::size_t k0, std::size_t k1) {
      for (std::size_t t = k0; t < k1; ++t) {
        cpa_seg.add(chunk.ciphertext(t), chunk.trace(t));
        cpa_single.add(chunk.ciphertext(t), chunk.trace(t));
      }
    });
    welch_merged.merge(welch_seg);
    cpa_merged.merge(cpa_seg);
    traces_total += 2 * n;

    const double max_abs_t =
        scan_t(welch_merged.t_values(), analysis::kTvlaThreshold).max_abs_t;
    report.checkpoint("soak", static_cast<double>(traces_total),
                      {{"max_abs_t", max_abs_t},
                       {"segment", static_cast<double>(seg)}});
    std::printf("  segment %zu/%zu: %zu traces folded, max |t| %.2f\n",
                seg + 1, segments, traces_total, max_abs_t);

    // Bound the disk footprint: a segment's stores are dead weight once
    // folded into the campaign accumulators.
    std::filesystem::remove(fixed_path);
    std::filesystem::remove(random_path);
  }

  // Gate 1: merged == single-pass, bit for bit.
  const bool welch_ok =
      bitwise_equal(welch_merged.t_values(), welch_single.t_values()) &&
      welch_merged.fixed_count() == welch_single.fixed_count() &&
      welch_merged.random_count() == welch_single.random_count();
  const bool cpa_ok = cpa_merged.count() == cpa_single.count() &&
                      reports_equal(cpa_merged.report(), cpa_single.report());
  report.metric("welch_merge_bit_identical", welch_ok ? 1.0 : 0.0, "bool");
  report.metric("cpa_merge_bit_identical", cpa_ok ? 1.0 : 0.0, "bool");

  const analysis::AttackCheckpoint score = analysis::evaluate_attack_checkpoint(
      cpa_merged, bench::evaluation_round10_key());
  const double max_abs_t =
      scan_t(welch_merged.t_values(), analysis::kTvlaThreshold).max_abs_t;
  std::printf("  final: max |t| %.2f, CPA mean rank %.1f over %zu traces\n",
              max_abs_t, score.mean_rank, cpa_merged.count());
  report.metric("segments", static_cast<double>(segments), "count");
  report.metric("traces_total", static_cast<double>(traces_total), "count");
  report.metric("max_abs_t", max_abs_t, "|t|");
  report.metric("cpa_mean_rank", score.mean_rank, "rank");

  // Recovery-path exercise: the soak is only a soak if faults actually
  // fired and the controller recovered continuously.
  const auto& reg = obs::Registry::global();
  (void)reg;
  const double lock_failures = static_cast<double>(
      obs::Registry::global().counter("rftc.recovery.lock_failures").value());
  const double retries = static_cast<double>(
      obs::Registry::global().counter("rftc.recovery.retries").value());
  const double fallbacks = static_cast<double>(
      obs::Registry::global().counter("rftc.recovery.fallbacks").value());
  report.metric("fault_lock_failures", lock_failures, "count");
  report.metric("fault_recovery_retries", retries, "count");
  report.metric("fault_recovery_fallbacks", fallbacks, "count");
  std::printf("  recovery: %.0f lock failures, %.0f retries, %.0f fallbacks\n",
              lock_failures, retries, fallbacks);

  // Gate 2: bounded memory over the whole soak.
  const double peak_mib = obs::peak_rss_mib();
  report.metric("peak_rss_mib", peak_mib, "MiB");
  report.metric("rss_gate_mib", rss_gate_mib, "MiB");
  std::printf("  peak RSS %.1f MiB (gate %.0f MiB)\n", peak_mib,
              rss_gate_mib);

  report.throughput(static_cast<double>(traces_total) /
                        report.elapsed_seconds(),
                    "traces/s");
  report.write();
  obs::flush();

  if (!welch_ok || !cpa_ok) {
    std::fprintf(stderr,
                 "soak_campaign: merged accumulators diverged from the "
                 "single-pass reference (welch %s, cpa %s)\n",
                 welch_ok ? "ok" : "DIVERGED", cpa_ok ? "ok" : "DIVERGED");
    return 1;
  }
  if (peak_mib > rss_gate_mib) {
    std::fprintf(stderr,
                 "soak_campaign: peak RSS %.1f MiB exceeds the %.0f MiB "
                 "gate\n",
                 peak_mib, rss_gate_mib);
    return 1;
  }
  return 0;
}
