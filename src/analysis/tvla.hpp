// Test Vector Leakage Assessment [6]: fixed-vs-random Welch t-test with the
// ±4.5 significance threshold (99.99% confidence that the populations are
// indistinguishable when |t| stays below it) — Fig. 6 of the paper.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "trace/acquisition.hpp"
#include "trace/trace_store.hpp"
#include "util/stats.hpp"

namespace rftc::analysis {

class ConvergenceMonitor;

inline constexpr double kTvlaThreshold = 4.5;

/// The t-scan fields (max_abs_t, worst_sample, leaking_samples against
/// kTvlaThreshold, signed extrema) describe the final per-sample t_values.
struct TvlaResult : TStatScan {
  std::vector<double> t_values;  // per sample
  bool passes() const { return max_abs_t < kTvlaThreshold; }
  /// Convergence trajectory: (traces per population, max |t|) at every
  /// tvla_checkpoints() count while the two populations are accumulated
  /// interleaved, plus the final count — how the t-statistic approaches its
  /// asymptote as the adversary budget grows (also emitted as
  /// "tvla.checkpoint" trace events).
  std::vector<std::pair<std::size_t, double>> convergence;
  /// Appends a convergence entry and emits its "tvla.checkpoint" event.
  void record(std::size_t traces_per_population, double max_abs);
  /// Sets t_values and the scan from the final accumulator and records the
  /// final convergence entry at `traces` — the one finish behind run_tvla
  /// and the distributed coordinator's merge.
  void finish(const WelchTTest& test, std::size_t traces);
};

/// The one TVLA checkpoint schedule: the obs schedule (log-spaced by
/// default, RFTC_OBS_CHECKPOINTS to override) strictly below `paired`, the
/// traces per population both populations reach.  run_tvla evaluates these
/// and then the final count; the distributed coordinator cuts its shards on
/// them.
std::vector<std::size_t> tvla_checkpoints(std::size_t paired);

/// Runs the fixed-vs-random Welch t-test.  When `monitor` is non-null it is
/// handed the t-scan of every convergence checkpoint (observe_tvla),
/// including the final count — so the monitor's last checkpoint equals
/// the result's scan.
TvlaResult run_tvla(const trace::TvlaCapture& capture,
                    ConvergenceMonitor* monitor = nullptr);

/// Out-of-core variant over two chunked trace stores: chunks stream through
/// the same per-sample Welch accumulators in global trace order, so the
/// result is bit-identical to run_tvla over the equivalent in-RAM capture
/// while only O(chunk) of either corpus is resident at a time.
TvlaResult run_tvla(const trace::StoredTvlaCapture& capture,
                    ConvergenceMonitor* monitor = nullptr);

/// Sharded-campaign primitive: feeds traces [t0, t1) of one store-backed
/// population into `test` (the fixed class when `fixed`, else the random
/// class) through run_tvla's own sample-sharded Welch feed.  Per-shard sums
/// are exact on ADC-quantized traces, so WelchTTest::merge over any
/// partition of both populations is bit-identical to the single-process
/// accumulator — the contract the rftc::dist workers build on.  `t1` is
/// clamped to the store size.
void accumulate_tvla_range(WelchTTest& test, const trace::TraceStore& store,
                           std::size_t t0, std::size_t t1, bool fixed);

}  // namespace rftc::analysis
