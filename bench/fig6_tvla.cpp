// Fig. 6 reproduction: TVLA (fixed-vs-random Welch t) for RFTC(M, P) with
// M in {1, 2, 3} and P in {4, 1024}, against the unprotected reference.
//
// Paper shape: M=1 leaks far beyond ±4.5 for both P; M=2 hovers around the
// limit; M=3 stays within ±4.5 except at the plaintext-load samples (the
// interface clock is not randomized).
// Out-of-core mode: set RFTC_STORE_DIR=<dir> and each configuration's
// populations are streamed into chunked .rtst stores there (via the same
// sharded acquisition discipline as the parallel in-RAM path) and the
// Welch sweep reads them back chunk-by-chunk — resident memory stays
// O(chunk) no matter how large RFTC_SCALE makes the corpus.  Note the
// sharded campaigns are different (equally random) draws than the serial
// in-RAM capture below, so per-config |t| values differ between modes;
// the shape conclusions are the same.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/convergence.hpp"
#include "analysis/tvla.hpp"
#include "common.hpp"
#include "obs/resource.hpp"
#include "obs/sampler.hpp"
#include "sched/fixed_clock.hpp"
#include "trace/trace_store.hpp"
#include "util/io.hpp"

namespace {

using namespace rftc;

// The standard TVLA fixed plaintext.
constexpr aes::Block kTvlaFixed = {0xDA, 0x39, 0xA3, 0xEE, 0x5E, 0x6B,
                                   0x4B, 0x0D, 0x32, 0x55, 0xBF, 0xEF,
                                   0x95, 0x60, 0x18, 0x90};

analysis::TvlaResult tvla_for_encryptor(const trace::Encryptor& enc,
                                        std::size_t n_per_pop,
                                        std::uint64_t seed,
                                        analysis::ConvergenceMonitor* monitor) {
  trace::PowerModelParams pm;
  trace::TraceSimulator sim(pm, seed);
  Xoshiro256StarStar rng(seed + 1);
  const trace::TvlaCapture cap =
      trace::acquire_tvla(enc, sim, n_per_pop, kTvlaFixed, rng);
  return analysis::run_tvla(cap, monitor);
}

analysis::TvlaResult tvla_out_of_core(const trace::CaptureShardFactory& factory,
                                      std::size_t n_per_pop,
                                      std::uint64_t seed,
                                      const std::string& dir,
                                      const std::string& label,
                                      analysis::ConvergenceMonitor* monitor,
                                      obs::RunManifest& report) {
  const std::string fixed_path = dir + "/fig6_" + label + "_fixed.rtst";
  const std::string random_path = dir + "/fig6_" + label + "_random.rtst";
  const std::size_t samples = factory(0).sim.samples();
  {
    trace::TraceStoreWriter fixed_w(fixed_path, samples);
    trace::TraceStoreWriter random_w(random_path, samples);
    trace::acquire_tvla_store(factory, n_per_pop, kTvlaFixed, seed + 1,
                              fixed_w, random_w);
    fixed_w.finalize();
    random_w.finalize();
  }
  trace::StoredTvlaCapture stored{trace::TraceStore(fixed_path),
                                  trace::TraceStore(random_path)};
  report.note(label + ".fixed_store", fixed_path);
  report.note(label + ".random_store", random_path);
  report.metric(label + ".chunks",
                static_cast<double>(stored.fixed.chunk_count() +
                                    stored.random.chunk_count()),
                "count");
  return analysis::run_tvla(stored, monitor);
}

void report_line(const std::string& label, const analysis::TvlaResult& res,
                 std::size_t load_region_end) {
  double max_load = 0.0, max_crypto = 0.0;
  std::size_t leaks_crypto = 0;
  for (std::size_t s = 0; s < res.t_values.size(); ++s) {
    const double a = std::abs(res.t_values[s]);
    if (s < load_region_end) {
      max_load = std::max(max_load, a);
    } else {
      max_crypto = std::max(max_crypto, a);
      if (a > analysis::kTvlaThreshold) ++leaks_crypto;
    }
  }
  const char* verdict =
      max_crypto > analysis::kTvlaThreshold
          ? "LEAKS (crypto)"
          : (max_load > analysis::kTvlaThreshold ? "load stage only"
                                                 : "PASS (<4.5)");
  std::printf("%-28s max|t| load %7.2f / crypto %7.2f  leaking crypto "
              "samples %4zu  %s\n",
              label.c_str(), max_load, max_crypto, leaks_crypto, verdict);
}

}  // namespace

int main() {
  obs::RunManifest report("fig6_tvla");
  const bench::ScaleProfile profile = bench::scale_profile();
  const std::size_t n = profile.tvla_traces;
  report.seed(900);  // base of the per-config capture seeds below
  report.note("profile", profile.name);
  report.metric("traces_per_population", static_cast<double>(n), "traces");
  // Heartbeat denominator: 7 configurations × 2 populations × n traces.
  obs::set_campaign_total(14.0 * static_cast<double>(n));
  std::string store_dir;
  if (const char* env = std::getenv("RFTC_STORE_DIR")) {
    store_dir = env;
    std::filesystem::create_directories(store_dir);
    report.note("mode", "out-of-core");
  }
  bench::print_header("Fig. 6 — TVLA, " + std::to_string(n) +
                      " traces per population, profile " + profile.name +
                      (store_dir.empty() ? "" : ", out-of-core"));

  const aes::Key key = bench::evaluation_key();
  // The plaintext-load edge sits at ~41.7 ns; with 2 ns sampling the load
  // region spans roughly the first 40 samples.
  const std::size_t load_region = 40;

  core::ScheduledAesDevice unprot(
      key, std::make_unique<sched::FixedClockScheduler>(48.0));
  analysis::ConvergenceMonitor mon_u;
  const auto res_u =
      store_dir.empty()
          ? tvla_for_encryptor(
                [&](const aes::Block& pt) { return unprot.encrypt(pt); }, n,
                900, &mon_u)
          : tvla_out_of_core(bench::unprotected_shard_factory(900), n, 900,
                             store_dir, "unprotected", &mon_u, report);
  report_line("Unprotected @ 48 MHz", res_u, load_region);
  report.metric("unprotected.max_abs_t", res_u.max_abs_t, "|t|");
  mon_u.emit(report, "unprotected.");

  std::vector<std::vector<double>> curves;
  for (const int m : {1, 2, 3}) {
    for (const int p : {4, 1024}) {
      const std::string label =
          "rftc_" + std::to_string(m) + "_" + std::to_string(p);
      const std::uint64_t seed =
          1'000 + static_cast<std::uint64_t>(m * 100 + p);
      core::RftcDevice dev = core::RftcDevice::make(
          key, m, p, 7'000 + static_cast<std::uint64_t>(m * 10 + p));
      analysis::ConvergenceMonitor monitor;
      const auto res =
          store_dir.empty()
              ? tvla_for_encryptor(
                    [&](const aes::Block& pt) { return dev.encrypt(pt); }, n,
                    seed, &monitor)
              : tvla_out_of_core(bench::rftc_shard_factory(m, p, seed), n,
                                 seed, store_dir, label, &monitor, report);
      report_line("RFTC(" + std::to_string(m) + ", " + std::to_string(p) +
                      ")",
                  res, load_region);
      report.metric(label + ".max_abs_t", res.max_abs_t, "|t|");
      monitor.emit(report, label + ".");
      if (m == 3 && p == 1024) {
        std::printf("\nTVLA convergence, RFTC(3, 1024) (|t| over the trace "
                    "axis, log-spaced checkpoints):\n");
        monitor.print_tvla_table();
      }
      if (p == 1024) curves.push_back(res.t_values);
    }
  }

  std::printf("\n|t| curves for RFTC(M, 1024), M = 1 (a), 2 (b), 3 (c):\n");
  for (auto& c : curves)
    for (auto& v : c) v = std::abs(v);
  std::printf("%s", ascii_plot(curves, 78, 16).c_str());
  std::printf(
      "\nExpected (paper): M=1 leaks heavily for both P; M=2 around the "
      "±4.5 limit; M=3 within ±4.5 except the plaintext-load region.\n");
  if (!store_dir.empty()) {
    const double peak_mib = obs::peak_rss_mib();
    std::printf("out-of-core peak RSS: %.1f MiB\n", peak_mib);
    report.metric("peak_rss_mib", peak_mib, "MiB");
  }
  bench::finish_capture_bench(report);
  return 0;
}
