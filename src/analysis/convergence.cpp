#include "analysis/convergence.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "util/rng.hpp"

namespace rftc::analysis {

double mtd_from_correlation(double rho, double z) {
  if (!(rho > 0.0)) return 0.0;
  if (rho >= 1.0) return 3.0;
  const double fisher = std::log((1.0 + rho) / (1.0 - rho));
  return 3.0 + 8.0 * (z / fisher) * (z / fisher);
}

ConvergenceMonitor::ConvergenceMonitor(Options options)
    : options_(options) {}

MtdEstimate ConvergenceMonitor::estimate_mtd(
    const std::vector<double>& byte_corr, bool disclosed) const {
  MtdEstimate est;
  est.disclosed = disclosed;
  if (byte_corr.empty()) return est;
  // The weakest byte (lowest correct-key correlation, i.e. highest
  // per-byte MTD) binds full-key disclosure.
  double worst = 0.0;
  bool estimable = true;
  for (const double rho : byte_corr) {
    const double m = mtd_from_correlation(rho, options_.mtd_z);
    if (m == 0.0) estimable = false;
    worst = std::max(worst, m);
  }
  if (!estimable) return est;  // point stays 0: not estimable yet
  est.point = worst;
  est.lo = est.hi = worst;

  // Percentile bootstrap over the attacked-byte set.  Deterministic: the
  // resampler is reseeded from the fixed option seed on every call, so the
  // estimate depends only on (byte_corr, options).
  if (options_.bootstrap_resamples >= 2 && byte_corr.size() >= 2) {
    Xoshiro256StarStar rng(options_.bootstrap_seed);
    std::vector<double> stats;
    stats.reserve(options_.bootstrap_resamples);
    for (std::size_t b = 0; b < options_.bootstrap_resamples; ++b) {
      double resample_worst = 0.0;
      for (std::size_t i = 0; i < byte_corr.size(); ++i) {
        const double rho = byte_corr[rng.uniform(byte_corr.size())];
        resample_worst = std::max(
            resample_worst, mtd_from_correlation(rho, options_.mtd_z));
      }
      stats.push_back(resample_worst);
    }
    std::sort(stats.begin(), stats.end());
    const auto pick = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(stats.size() - 1) + 0.5);
      return stats[std::min(idx, stats.size() - 1)];
    };
    est.lo = pick(0.05);
    est.hi = pick(0.95);
  }
  return est;
}

void ConvergenceMonitor::observe_cpa(const AttackCheckpoint& scored,
                                     std::size_t traces) {
  CpaCheckpoint cp{scored, traces, estimate_mtd(scored.byte_corr,
                                                scored.recovered)};
  RFTC_OBS_INSTANT("analysis", "monitor.cpa",
                   {"traces", static_cast<double>(cp.traces)},
                   {"mean_rank", cp.mean_rank},
                   {"mtd", cp.mtd.point});
  // Publish for the heartbeat sampler: the next tick carries this
  // checkpoint so a watcher sees attack convergence live.
  obs::publish_checkpoint("cpa", static_cast<double>(cp.traces),
                          {{"mean_rank", cp.mean_rank},
                           {"mtd", cp.mtd.point},
                           {"peak_corr", cp.peak_corr}});
  cpa_.push_back(std::move(cp));
}

void ConvergenceMonitor::observe_tvla(const TStatScan& scan,
                                      std::size_t traces_per_population) {
  const TvlaCheckpoint cp{scan, traces_per_population};
  RFTC_OBS_INSTANT(
      "analysis", "monitor.tvla",
      {"traces_per_population", static_cast<double>(cp.traces_per_population)},
      {"max_abs_t", cp.max_abs_t});
  obs::publish_checkpoint(
      "tvla", static_cast<double>(cp.traces_per_population),
      {{"max_abs_t", cp.max_abs_t},
       {"leaking_samples", static_cast<double>(cp.leaking_samples)}});
  tvla_.push_back(cp);
}

void ConvergenceMonitor::print_cpa_table(std::FILE* out) const {
  std::fprintf(out,
               "%10s %10s %10s %9s %12s %s\n",
               "traces", "peak|corr|", "mean rank", "max rank", "MTD est",
               "status");
  for (const CpaCheckpoint& cp : cpa_) {
    char mtd[64];
    if (cp.mtd.point > 0.0) {
      std::snprintf(mtd, sizeof mtd, "%.0f [%.0f, %.0f]", cp.mtd.point,
                    cp.mtd.lo, cp.mtd.hi);
    } else {
      std::snprintf(mtd, sizeof mtd, "-");
    }
    std::fprintf(out, "%10zu %10.4f %10.1f %9d %12s %s\n", cp.traces,
                 cp.peak_corr, cp.mean_rank, cp.max_rank, mtd,
                 cp.recovered ? "KEY RECOVERED" : "resisting");
  }
}

void ConvergenceMonitor::print_tvla_table(std::FILE* out) const {
  std::fprintf(out, "%10s %10s %10s %10s %10s\n", "traces/pop", "max|t|",
               "max t", "min t", "leaking");
  for (const TvlaCheckpoint& cp : tvla_) {
    std::fprintf(out, "%10zu %10.2f %10.2f %10.2f %10zu\n",
                 cp.traces_per_population, cp.max_abs_t, cp.max_t, cp.min_t,
                 cp.leaking_samples);
  }
}

void ConvergenceMonitor::emit(obs::RunManifest& manifest,
                              const std::string& prefix) const {
  for (const CpaCheckpoint& cp : cpa_) {
    manifest.checkpoint(prefix + "cpa", static_cast<double>(cp.traces),
                        {{"peak_corr", cp.peak_corr},
                         {"mean_rank", cp.mean_rank},
                         {"max_rank", static_cast<double>(cp.max_rank)},
                         {"recovered", cp.recovered ? 1.0 : 0.0},
                         {"mtd", cp.mtd.point},
                         {"mtd_lo", cp.mtd.lo},
                         {"mtd_hi", cp.mtd.hi}});
  }
  for (const TvlaCheckpoint& cp : tvla_) {
    manifest.checkpoint(
        prefix + "tvla", static_cast<double>(cp.traces_per_population),
        {{"max_abs_t", cp.max_abs_t},
         {"max_t", cp.max_t},
         {"min_t", cp.min_t},
         {"leaking_samples", static_cast<double>(cp.leaking_samples)}});
  }
}

}  // namespace rftc::analysis
