// Distributed campaign bench: the rftc::dist coordinator fanning an attack
// and a TVLA sweep out over rftc-worker processes, gated on the one property
// that matters — the merged result is bit-identical to the single-process
// run_attack / run_tvla over the same stores, for every worker count tried.
// Wall-clock speedup is reported as a metric but never gated (it is machine
// shape, not correctness).
//
// The stores (and the round-10 key, recorded as a report note) are kept
// under RFTC_STORE_DIR so the dist-resume CI job can re-drive the same
// corpus through the rftc-campaign CLI, including kill + resume.
//
// Knobs:
//   RFTC_DIST_TRACES   attack store traces (default 8,000; TVLA uses 1/4
//                      of this per population)
//   RFTC_STORE_DIR     where the .rtst stores go (default: temp dir)
//   RFTC_WORKER_BIN    rftc-worker override (default: the build-tree
//                      binary this bench was configured against)
//
// Exit codes: 0 = all distributed runs bit-identical, 1 = divergence or
// campaign failure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "analysis/tvla.hpp"
#include "common.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "trace/trace_store.hpp"

#ifndef RFTC_DIST_WORKER_BIN_DEFAULT
#define RFTC_DIST_WORKER_BIN_DEFAULT "rftc-worker"
#endif

namespace {

using namespace rftc;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool same_attack(const analysis::AttackOutcome& a,
                 const analysis::AttackOutcome& b) {
  if (a.checkpoints != b.checkpoints || a.success != b.success) return false;
  if (a.mean_rank.size() != b.mean_rank.size() ||
      a.peak_corr.size() != b.peak_corr.size())
    return false;
  for (std::size_t i = 0; i < a.mean_rank.size(); ++i)
    if (a.mean_rank[i] != b.mean_rank[i] || a.peak_corr[i] != b.peak_corr[i])
      return false;
  return true;
}

bool same_tvla(const analysis::TvlaResult& a, const analysis::TvlaResult& b) {
  if (a.t_values != b.t_values || a.max_abs_t != b.max_abs_t ||
      a.worst_sample != b.worst_sample ||
      a.leaking_samples != b.leaking_samples)
    return false;
  return a.convergence == b.convergence;
}

}  // namespace

int main() {
  obs::RunManifest report("dist_campaign");
  std::size_t n = 8'000;
  if (const char* env = std::getenv("RFTC_DIST_TRACES")) {
    const long v = std::atol(env);
    if (v > 0) n = static_cast<std::size_t>(v);
  }
  std::string dir;
  if (const char* env = std::getenv("RFTC_STORE_DIR")) {
    dir = env;
    std::filesystem::create_directories(dir);
  } else {
    dir = std::filesystem::temp_directory_path().string();
  }
  std::string worker = RFTC_DIST_WORKER_BIN_DEFAULT;
  if (const char* env = std::getenv("RFTC_WORKER_BIN");
      env != nullptr && *env != '\0')
    worker = env;

  const std::uint64_t seed = 31'337;
  report.seed(seed);
  bench::print_header("Distributed campaign, RFTC(3, 1024), " +
                      std::to_string(n) + " attack traces");

  const trace::CaptureShardFactory factory =
      bench::rftc_shard_factory(3, 1024, seed);
  const std::size_t samples = factory(0).sim.samples();
  const aes::Block rk10 = bench::evaluation_round10_key();

  // ---- corpus -----------------------------------------------------------
  const std::string attack_path = dir + "/dist_attack.rtst";
  {
    trace::TraceStoreWriter w(attack_path, samples);
    trace::acquire_random_store(factory, n, seed + 1, w);
    w.finalize();
  }
  const std::size_t n_tvla = std::max<std::size_t>(n / 4, 256);
  const aes::Block tvla_fixed = {0xDA, 0x39, 0xA3, 0xEE, 0x5E, 0x6B,
                                 0x4B, 0x0D, 0x32, 0x55, 0xBF, 0xEF,
                                 0x95, 0x60, 0x18, 0x90};
  const std::string tvla_fixed_path = dir + "/dist_tvla_fixed.rtst";
  const std::string tvla_random_path = dir + "/dist_tvla_random.rtst";
  {
    trace::TraceStoreWriter fw(tvla_fixed_path, samples);
    trace::TraceStoreWriter rw(tvla_random_path, samples);
    trace::acquire_tvla_store(factory, n_tvla, tvla_fixed, seed + 2, fw, rw);
    fw.finalize();
    rw.finalize();
  }
  report.note("attack_store", attack_path);
  report.note("attack_key_hex", dist::key_to_hex(rk10));
  report.note("tvla_fixed_store", tvla_fixed_path);
  report.note("tvla_random_store", tvla_random_path);
  report.metric("attack_traces", static_cast<double>(n), "traces");
  report.metric("tvla_traces_per_population", static_cast<double>(n_tvla),
                "traces");

  // ---- attack: single-process baselines, then distributed ---------------
  dist::CampaignSpec spec;
  spec.kind = dist::CampaignKind::kAttack;
  spec.name = "dist_campaign_attack";
  spec.store = attack_path;
  spec.key_hex = dist::key_to_hex(rk10);
  spec.byte_positions = {0, 7};
  spec.checkpoints = {n / 4, n / 2, n};

  bool all_identical = true;
  const trace::TraceStore store(attack_path);
  auto t0 = std::chrono::steady_clock::now();
  const analysis::AttackOutcome baseline =
      analysis::run_attack(store, rk10, spec.attack_params());
  const double single_seconds = seconds_since(t0);
  std::printf("attack single-process: %.2fs\n", single_seconds);

  double workers4_seconds = 0.0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const std::string cdir =
        dir + "/dist_campaign_attack_batched_w" + std::to_string(workers);
    std::filesystem::remove_all(cdir);
    dist::CoordinatorOptions options;
    options.dir = cdir;
    options.worker_binary = worker;
    options.workers = workers;
    t0 = std::chrono::steady_clock::now();
    const dist::CampaignResult result = dist::run_campaign(spec, options);
    const double dist_s = seconds_since(t0);
    if (workers == 4) workers4_seconds = dist_s;
    const bool ok = same_attack(result.attack, baseline);
    all_identical = all_identical && ok;
    std::printf("attack workers=%zu: %.2fs, %zu shards — %s\n", workers,
                dist_s, result.shards_total,
                ok ? "bit-identical" : "DIVERGED");
    report.metric("attack_batched_w" + std::to_string(workers) + "_identical",
                  ok ? 1.0 : 0.0, "bool");
  }
  report.metric("attack_single_seconds", single_seconds, "s");
  report.metric("attack_workers4_seconds", workers4_seconds, "s");
  if (workers4_seconds > 0.0)
    report.metric("attack_speedup_w4", single_seconds / workers4_seconds,
                  "x");

  // ---- TVLA -------------------------------------------------------------
  dist::CampaignSpec tvla_spec;
  tvla_spec.kind = dist::CampaignKind::kTvla;
  tvla_spec.name = "dist_campaign_tvla";
  tvla_spec.fixed_store = tvla_fixed_path;
  tvla_spec.random_store = tvla_random_path;
  const trace::StoredTvlaCapture stored{trace::TraceStore(tvla_fixed_path),
                                        trace::TraceStore(tvla_random_path)};
  const analysis::TvlaResult tvla_baseline = analysis::run_tvla(stored);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const std::string cdir =
        dir + "/dist_campaign_tvla_w" + std::to_string(workers);
    std::filesystem::remove_all(cdir);
    dist::CoordinatorOptions options;
    options.dir = cdir;
    options.worker_binary = worker;
    options.workers = workers;
    const dist::CampaignResult result =
        dist::run_campaign(tvla_spec, options);
    const bool ok = same_tvla(result.tvla, tvla_baseline);
    all_identical = all_identical && ok;
    std::printf("tvla workers=%zu: %zu shards — %s\n", workers,
                result.shards_total, ok ? "bit-identical" : "DIVERGED");
    report.metric("tvla_w" + std::to_string(workers) + "_identical",
                  ok ? 1.0 : 0.0, "bool");
  }

  report.throughput(static_cast<double>(n) / report.elapsed_seconds(),
                    "traces/s");
  report.write();
  if (!all_identical) {
    std::fprintf(stderr,
                 "dist_campaign: a distributed run diverged from the "
                 "single-process baseline\n");
    return 1;
  }
  return 0;
}
