// ConvergenceMonitor: streaming security telemetry over a running CPA
// attack or TVLA assessment.
//
// RFTC's security claims are curves over the trace axis — CPA correlation
// and key rank staying flat, |t| < 4.5, MTD growing without bound — so the
// monitor snapshots those quantities at trace-count checkpoints
// (obs::checkpoints_from_env, log-spaced by default) while the accumulators
// are still being fed, without ever re-scanning the trace set:
//
//  * observe_cpa() takes the checkpoint run_attack already scored
//    (evaluate_attack_checkpoint: per attacked byte the correct-key peak
//    correlation and rank, the byte-max |correlation| of the best guess,
//    full-key recovery) and adds an MTD (measurements-to-disclosure)
//    estimate with a bootstrap confidence interval (resampling the
//    attacked-byte set; deterministic under the configured seed).  No
//    extra report pass.
//  * observe_tvla() takes the t-scan run_tvla already made at the
//    checkpoint: signed extrema, |t| max and leaking-sample count.
//
// Snapshots are pure functions of the accumulator state, so a monitor fed
// from the deterministic CPA/TVLA pipeline is bit-identical under any
// RFTC_THREADS and either CPA engine mode (pinned by tests).  The recorded
// stream can be pretty-printed as a compact convergence table or appended
// to an obs::RunManifest as "cpa" / "tvla" checkpoint records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/attacks.hpp"
#include "obs/run_manifest.hpp"
#include "util/stats.hpp"

namespace rftc::analysis {

/// Mangard's rule-of-thumb sample count for distinguishing a correlation of
/// `rho` from zero with confidence quantile `z`:
/// n = 3 + 8 (z / ln((1+rho)/(1-rho)))^2.  Returns 0 ("not estimable")
/// when rho <= 0, and the 3-trace floor as rho -> 1.
double mtd_from_correlation(double rho, double z = 3.719);

/// MTD estimate with a bootstrap percentile confidence interval.
struct MtdEstimate {
  /// Estimated traces to full-key disclosure (the weakest attacked byte
  /// binds); 0 = not estimable at this checkpoint.
  double point = 0.0;
  /// Bootstrap 5th / 95th percentile (equal to `point` when fewer than two
  /// resamples are usable).
  double lo = 0.0;
  double hi = 0.0;
  /// True when every attacked byte already ranks first.
  bool disclosed = false;
};

struct CpaCheckpoint : AttackCheckpoint {
  std::size_t traces = 0;
  MtdEstimate mtd;
};

struct TvlaCheckpoint : TStatScan {
  std::size_t traces_per_population = 0;
};

class ConvergenceMonitor {
 public:
  struct Options {
    /// Bootstrap resamples for the MTD confidence interval.
    std::size_t bootstrap_resamples = 200;
    /// Seed of the bootstrap resampler (fixed => deterministic CI).
    std::uint64_t bootstrap_seed = 0x0B5EC0DE5EEDULL;
    /// Confidence quantile of the MTD rule (3.719 ~ alpha 1e-4).
    double mtd_z = 3.719;
  };

  ConvergenceMonitor() : ConvergenceMonitor(Options{}) {}
  explicit ConvergenceMonitor(Options options);

  /// Records a CPA checkpoint scored at `traces` by
  /// evaluate_attack_checkpoint, plus its MTD estimate.
  void observe_cpa(const AttackCheckpoint& scored, std::size_t traces);

  /// Records a TVLA checkpoint: the t-scan at `traces_per_population`
  /// traces in each population.
  void observe_tvla(const TStatScan& scan, std::size_t traces_per_population);

  const std::vector<CpaCheckpoint>& cpa() const { return cpa_; }
  const std::vector<TvlaCheckpoint>& tvla() const { return tvla_; }

  /// Compact convergence tables (one row per checkpoint).
  void print_cpa_table(std::FILE* out = stdout) const;
  void print_tvla_table(std::FILE* out = stdout) const;

  /// Appends every snapshot as checkpoint records on streams
  /// "<prefix>cpa" / "<prefix>tvla".
  void emit(obs::RunManifest& manifest, const std::string& prefix = "") const;

 private:
  MtdEstimate estimate_mtd(const std::vector<double>& byte_corr,
                           bool disclosed) const;

  Options options_;
  std::vector<CpaCheckpoint> cpa_;
  std::vector<TvlaCheckpoint> tvla_;
};

}  // namespace rftc::analysis
